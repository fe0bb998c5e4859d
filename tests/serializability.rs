//! End-to-end serializability: every experiment configuration must produce
//! replica-agreeing, one-copy-serializable histories, and the client-side
//! view of commits must match what actually landed in the replicated log.

use paxos_cp::mdstore::{CommitProtocol, Topology};
use paxos_cp::workload::{run_load, LoadSpec, Placement};

fn spec(topology: &str, protocol: CommitProtocol, seed: u64) -> LoadSpec {
    LoadSpec::paper_default(Topology::from_name(topology).unwrap(), protocol)
        .named(format!("it-{topology}-{}-{seed}", protocol.name()))
        .with_clients(3, 15)
        .with_seed(seed)
}

#[test]
fn histories_are_serializable_across_topologies_and_protocols() {
    for topology in ["VV", "VVV", "COV"] {
        for protocol in [CommitProtocol::BasicPaxos, CommitProtocol::PaxosCp] {
            // run_load panics internally if the checker finds a
            // violation; reaching this assert means the history verified.
            let result = run_load(&spec(topology, protocol, 101));
            assert_eq!(result.totals.attempted, 45, "{topology}/{protocol:?}");
            assert_eq!(
                result.totals.committed + result.totals.aborted,
                result.totals.attempted,
                "every transaction reaches a decision"
            );
            assert!(!result.check.is_empty());
        }
    }
}

#[test]
fn client_reported_commits_match_the_replicated_log() {
    let result = run_load(&spec("VVV", CommitProtocol::PaxosCp, 77));
    let logged: usize = result
        .check
        .iter()
        .map(|(_, report)| report.transactions)
        .sum();
    // Read-only transactions commit without ever entering the write-ahead
    // log (§3.2), so the log must hold exactly the read/write commits.
    assert_eq!(
        logged,
        result.totals.committed - result.totals.read_only,
        "transactions in the merged log must equal client-side read/write commits"
    );
}

#[test]
fn serializability_holds_under_message_loss() {
    for protocol in [CommitProtocol::BasicPaxos, CommitProtocol::PaxosCp] {
        let s = spec("VVV", protocol, 303).with_topology(Topology::vvv().with_loss(0.10));
        let result = run_load(&s);
        assert_eq!(result.totals.attempted, 45);
        assert!(
            result.net.dropped_loss > 0,
            "loss must actually have occurred"
        );
        assert!(
            result.totals.committed > 0,
            "a lossy but connected majority still commits"
        );
    }
}

#[test]
fn geo_distributed_clients_remain_serializable() {
    let spec = LoadSpec::paper_default(Topology::voc(), CommitProtocol::PaxosCp)
        .named("it-geo")
        .with_placement(Placement::RoundRobin)
        .with_clients(3, 20)
        .with_seed(11);
    let result = run_load(&spec);
    assert_eq!(result.totals.attempted, 60);
    // Each datacenter hosted one client.
    let mut replicas = result.actor_replicas.clone();
    replicas.sort_unstable();
    assert_eq!(replicas, vec![0, 1, 2]);
    // The merged log and per-replica logs agreed (checker ran inside).
    assert!(result.totals.committed > 30);
}

#[test]
fn read_only_transactions_always_commit_and_stay_out_of_the_log() {
    let mut s = spec("VVV", CommitProtocol::PaxosCp, 55);
    s.mix.read_fraction = 1.0; // every operation is a read => read-only txns
    let result = run_load(&s);
    assert_eq!(result.totals.committed, result.totals.attempted);
    assert_eq!(result.totals.read_only, result.totals.attempted);
    let logged: usize = result.check.iter().map(|(_, r)| r.transactions).sum();
    assert_eq!(
        logged, 0,
        "read-only transactions never enter the write-ahead log"
    );
}

#[test]
fn same_seed_reproduces_identical_results() {
    let a = run_load(&spec("VVV", CommitProtocol::PaxosCp, 999));
    let b = run_load(&spec("VVV", CommitProtocol::PaxosCp, 999));
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.net, b.net);
    assert_eq!(a.duration, b.duration);
}
