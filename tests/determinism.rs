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
///
/// Counters `RunMetrics` gained after the fingerprints below were pinned
/// are left out, and the counters it lost since, zero in every pinned run,
/// are rendered back at zero (`timed_out`: no wire port expired a commit;
/// `expired_reads`: no client sent a remote read), so a run's rendering
/// moves only when the run itself does.
fn run_digest(spec: &LoadSpec) -> String {
    let result = run_load(spec);
    let digest = format!(
        "check={:?} totals={:?} per_actor={:?} duration={:?}",
        result.check, result.totals, result.per_actor, result.duration
    );
    let digest = ["direct_backoffs", "learned_from_home_log"]
        .iter()
        .fold(digest, |text, field| without_counter(&text, field));
    digest.replace(
        ", batch_splits: ",
        ", timed_out: 0, expired_reads: 0, batch_splits: ",
    )
}

/// `text` with every `, field: <number>` of a `Debug` rendering removed.
fn without_counter(text: &str, field: &str) -> String {
    let key = format!(", {field}: ");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(&key) {
        out.push_str(&rest[..at]);
        rest = rest[at + key.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
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
    // Crashes drive the recovery paths (timer re-fires, dropped committer
    // windows) that iterate the converted service maps.
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
    // The three direct-route literals were re-taken on top of commit
    // ef242d9, when direct commits began resolving positions their home log
    // already holds (`ProposerEvent::Decided`) instead of re-preparing them
    // after a back-off: that change drops rounds and timers from the direct
    // route on purpose, and only from it. The group-committer and
    // recovery-janitor literals were re-taken on top of commit d6ae05d, when
    // the group committer began claiming each slot's position at its own
    // datacenter's core in-process while it homes the group, instead of
    // sending a `LeaderClaim` (to its own service, or to the datacenter of
    // the client whose member won the previous position), and a slot began
    // re-sending an incomplete fast accept once to the replicas that had
    // not answered (`ProposerConfig::fast_resends`): that change removes
    // the committer's claim round trips, moves when its accepts leave and
    // shortens its fast rounds under faults, and only that. Both were
    // re-taken again on top of commit 1461d29, when an acceptor's vote on a
    // committer slot's own entry began to be copied to the clients of its
    // members outside the committer's datacenter, which answer a commit
    // once the copies show its entry decided: that change adds the copy
    // messages and moves those clients' decision instants, and only on the
    // submitted route; the direct route sends no copies. The
    // recovery-janitor literal alone was re-taken on top of commit 097ed5b,
    // when a new group home began settling every position the old home
    // could still have in flight before it proposes (a takeover query to
    // every replica, then recovery instances through the target) and the
    // default pipeline depth went from 2 to 8: its rolling-failure run moves
    // group homes and runs at the default depth, while the committer run
    // pins depth 2 and moves no home. The two Paxos-CP direct-route
    // literals were re-taken on top of commit 86f7532, when a direct commit
    // began promoting in-process past the decided positions of its home log
    // above its snapshot that wrote nothing it read, and claiming the fast
    // path at the first position the log does not hold: that change drops
    // a refused claim and a prepare-and-accept round from stale direct
    // commits, and only from Paxos-CP direct commits (basic Paxos never
    // promotes). The three direct-route literals were re-taken on top of
    // commit 278a1bd, when a direct commit whose own datacenter leads its
    // position began claiming the fast path at that datacenter's core
    // in-process instead of sending a `LeaderClaim` to its own service:
    // that change drops the claim's message pair and its reply timer from
    // direct commits, and only from them (the committer already claimed
    // in-process, and recovery instances never claim). A refactor that
    // moves a message, a timer or an RNG draw on any of the three paths
    // changes one of these fingerprints.
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
            0x53124bf88ef9b758,
        ),
        (
            "direct route, Paxos-CP",
            paper(CommitProtocol::PaxosCp),
            0xcbcdd5f0d4355dc7,
        ),
        ("group committer", committer, 0x4f3adca91ccce109),
        (
            "direct route under rolling crashes",
            crashes,
            0xea612e5486f700d3,
        ),
        // The rolling-crash spec above starts no recovery instance (counted
        // at the parent); this one starts them from the janitor and from
        // the takeovers of its home moves.
        (
            "recovery janitor",
            LoadSpec::rolling_failure(SimDuration::from_secs(4)).with_seed(777),
            0xd0b1abe902ee2d9e,
        ),
    ];
    let moved: Vec<String> = pinned
        .into_iter()
        .filter_map(|(path, spec, expected)| {
            let actual = fnv1a64(&run_digest(&spec));
            (actual != expected).then(|| format!("{path}: {actual:#x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "these runs no longer match their pinned parent — a message, timer or \
         RNG draw moved: {moved:?}"
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
