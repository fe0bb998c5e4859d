//! Commit-route comparison: the paper's contended workload run under
//! [`CommitRoute::Direct`] (client-driven proposer, the paper-faithful
//! baseline) versus [`CommitRoute::Submitted`] (service-hosted group
//! commit engine).
//!
//! The workload is the paper's shape — 10 operations per transaction, 50 %
//! reads, one contended row — but offered at saturation: every client
//! keeps several transactions open, so commits *overlap*. Under `Direct`,
//! overlapping commits of one group are dueling Paxos proposers: they race
//! for the same position, promote past each other and pay a round trip per
//! transaction. Under `Submitted`, every client's commits funnel into the
//! group home's one group committer, which windows compatible
//! transactions into shared instances and pipelines the rest — one
//! prepare/accept exchange decides many transactions and nobody duels.
//!
//! Every run is verified for replica agreement and one-copy
//! serializability by `run_load` before its numbers are reported.

use mdstore::{CommitProtocol, CommitRoute, Topology};
use workload::{LoadResult, LoadSpec};

/// The contended comparison point for one route at `writers` concurrent
/// clients (all in one datacenter, one transaction group, one row).
pub fn route_spec(route: CommitRoute, writers: usize, quick: bool) -> LoadSpec {
    let txns = if quick { 6 } else { 20 };
    LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
        .named(format!("routes-{writers}w-{}", route.name()))
        .with_clients(writers, txns)
        .with_route(route)
        .with_max_open(4)
        .with_target_tps(50.0)
        .with_keys(60)
        .with_seed(7_700 + writers as u64)
}

/// Both comparison points (Direct first) at `writers` concurrent clients.
pub fn route_compare_specs(writers: usize, quick: bool) -> Vec<LoadSpec> {
    vec![
        route_spec(CommitRoute::Direct, writers, quick),
        route_spec(CommitRoute::Submitted, writers, quick),
    ]
}

/// Format a route comparison as an aligned text table.
pub fn format_route_table(results: &[LoadResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "route      attempted  committed  aborted  combined  p50(ms)  sim_s    committed tx/s\n",
    );
    for r in results {
        let span_s = r.totals.last_decision_us as f64 / 1_000_000.0;
        let route = r.spec.client.route.name();
        out.push_str(&format!(
            "{:<9}  {:>9}  {:>9}  {:>7}  {:>8}  {:>7.2}  {:>7.2}  {:>14.1}\n",
            route,
            r.totals.attempted,
            r.totals.committed,
            r.totals.aborted,
            r.totals.combined_commits,
            r.totals.commit_latency().p50_ms,
            span_s,
            r.committed_tps(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::run_load;

    /// The route acceptance experiment: on the contended workload at 8
    /// concurrent writers, the submitted route commits at least as many
    /// transactions as the direct route, and a direct commit's median
    /// latency stays within a quarter millisecond of a submitted one's,
    /// with both routes passing the serializability checker (`run_load`
    /// panics on violation).
    #[test]
    fn submitted_route_commits_at_least_as_many_and_direct_p50_stays_within_a_quarter_ms_at_8_writers(
    ) {
        let specs = route_compare_specs(8, true);
        let direct = run_load(&specs[0]);
        let submitted = run_load(&specs[1]);
        assert_eq!(
            direct.totals.attempted, submitted.totals.attempted,
            "equal offered load"
        );
        assert!(
            submitted.totals.committed >= direct.totals.committed,
            "funneling into one committer must not lose commits to dueling proposers: \
             direct {} committed vs submitted {}",
            direct.totals.committed,
            submitted.totals.committed,
        );
        let (d_p50, s_p50) = (
            direct.totals.commit_latency().p50_ms,
            submitted.totals.commit_latency().p50_ms,
        );
        assert!(
            d_p50 <= s_p50 + 0.25,
            "a direct commit must not wait for what its home log already holds: \
             direct p50 {d_p50:.2} ms vs submitted p50 {s_p50:.2} ms"
        );
    }
}
