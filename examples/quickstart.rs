//! Quickstart: build a three-datacenter cluster, run a small transactional
//! workload under Paxos-CP down both commit routes, and verify one-copy
//! serializability.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use paxos_cp::mdstore::{Cluster, ClusterConfig, CommitProtocol, CommitRoute, Topology};
use paxos_cp::workload::{run_load, LoadSpec};

fn main() {
    // --- The one-call path: describe a load and run it. -------------------
    //
    // Clients are `mdstore::Session`s: `begin()` hands back a `TxnHandle`,
    // reads/writes/commit take the handle, and several transactions can be
    // open concurrently (`with_max_open`). Commit takes one of two routes:
    // `Direct` drives the paper's client-side Paxos-CP proposer, one
    // instance per transaction; `Submitted` ships the finished transaction
    // to the group home's Transaction Service, whose hosted group committer
    // batches commits from every client into pipelined shared instances.
    for route in [CommitRoute::Direct, CommitRoute::Submitted] {
        let spec = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
            .named(format!("quickstart-{}", route.name()))
            .with_clients(3, 20)
            .with_route(route)
            .with_max_open(2)
            .with_seed(7);
        println!(
            "running {} transactions over a {} cluster with {} (route: {})...",
            spec.total_transactions()
                .expect("the paper's loop is closed"),
            spec.topology.name(),
            spec.client.protocol.name(),
            route.name(),
        );
        let result = run_load(&spec);
        println!(
            "committed {}/{} transactions ({} needed a promotion, {} were combined)",
            result.totals.committed,
            result.totals.attempted,
            result.totals.promoted_commits(),
            result.totals.combined_commits
        );
        println!(
            "mean commit latency: {:.1} ms (p95 {:.1} ms)",
            result.totals.commit_latency().mean_ms,
            result.totals.commit_latency().p95_ms
        );
        for (group, report) in &result.check {
            println!(
                "serializability verified for group {group}: {} positions, {} transactions, {} combined entries",
                report.positions, report.transactions, report.combined_positions
            );
        }
        println!();
    }

    // --- The lower-level path: build a cluster by hand and poke at it. -----
    let cluster = Cluster::build(ClusterConfig::new(
        Topology::from_name("VOC").expect("valid cluster name"),
        CommitProtocol::PaxosCp,
    ));
    println!(
        "built a {} cluster with {} datacenters; services at {:?}",
        cluster.config().topology.name(),
        cluster.num_datacenters(),
        (0..cluster.num_datacenters())
            .map(|r| cluster.service_node(r))
            .collect::<Vec<_>>()
    );
    println!("each datacenter holds a multi-version store, a replicated write-ahead log,");
    println!("and a Transaction Service hosting the group commit engine; add `Session`-owning");
    println!("client actors with Cluster::add_client and drive them with the simulator.");
}
