//! Sharded multi-group scaling workloads: sweep the number of transaction
//! groups, the batch size and the **commit-pipeline depth**, measuring
//! aggregate committed transactions/sec of simulated time and commit
//! latency percentiles.
//!
//! The paper's §2.1 data model partitions rows into transaction groups so
//! that independent groups commit in parallel; these workloads exercise
//! exactly that. Every point is a [`LoadSpec`] that [`workload::run_load`]
//! runs: writers placed round-robin over the VVV datacenters commit blind
//! single-write transactions over a million uniform keys, each routed to
//! group `key % groups`, through the **submitted commit route**. The
//! group home's service-hosted group committer batches and pipelines
//! them, the same engine real client sessions use.
//!
//! Two load shapes:
//!
//! * **closed loop** — each writer keeps one window's worth open and starts
//!   the next transaction as soon as one finishes: the group and batch
//!   sweeps (depth 1).
//! * **burst** — each writer opens its whole quota up front. Equal offered
//!   load across pipeline depths: the committer drains the backlog with up
//!   to `pipeline_depth` instances in flight, so the depth sweep isolates
//!   what pipelining buys.
//!
//! `run_load` verifies every run (replica agreement, one-copy
//! serializability per group, exactly-once) before its numbers are
//! reported.

use mdstore::{BatchConfig, CommitProtocol, CommitRoute, Topology};
use simnet::SimDuration;
use workload::{KeyDistribution, Keyspace, LoadResult, LoadSpec, OpMix, Placement};

/// What every scaling point shares: writers round-robin over the VVV
/// datacenters, all starting at once and committing blind single-write
/// transactions back to back over `groups` groups, whose committers run
/// `batch`. Callers size the writers and how many each keeps open.
fn scaling_spec(name: String, groups: usize, batch: BatchConfig, seed: u64) -> LoadSpec {
    let paper = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp);
    LoadSpec {
        name,
        placement: Placement::RoundRobin,
        mix: OpMix {
            ops_per_txn: 1,
            read_fraction: 0.0,
            op_delay: SimDuration::ZERO,
            ..paper.mix
        },
        keyspace: Keyspace {
            groups,
            keys: 1 << 20,
            rows: 1024,
            distribution: KeyDistribution::Uniform,
        },
        client: paper.client.clone().with_route(CommitRoute::Submitted),
        batch,
        seed,
        ..paper
    }
    .with_target_tps(0.0)
    .with_stagger(SimDuration::ZERO)
}

/// Service committers with window cap `max_batch` at `depth`.
fn windows(max_batch: usize, depth: usize) -> BatchConfig {
    BatchConfig::default()
        .with_max_batch(max_batch)
        .with_pipeline_depth(depth)
}

/// Closed-loop rounds: each writer keeps `batch` transactions open for
/// `rounds` windows' worth, committed through depth-1 windows of `batch`.
fn rounds_spec(groups: usize, batch: usize, writers: usize, rounds: usize, seed: u64) -> LoadSpec {
    let name = format!("scaling-g{groups}-b{batch}");
    scaling_spec(name, groups, windows(batch, 1), seed)
        .with_clients(writers, rounds * batch)
        .with_max_open(batch)
}

/// Burst: each of `writers` opens its whole `quota` up front into
/// committers with window cap `cap` at `depth`.
fn burst_spec(
    groups: usize,
    cap: usize,
    depth: usize,
    writers: usize,
    quota: usize,
    seed: u64,
) -> LoadSpec {
    let name = format!("pipeline-d{depth}-c{cap}");
    scaling_spec(name, groups, windows(cap, depth), seed)
        .with_clients(writers, quota)
        .with_max_open(quota)
}

/// The group-count sweep: the same writer pool sharded over 1, 4, 16 and
/// 64 groups (batch size 4; depth 1, so only the group count varies).
pub fn group_sweep_specs(quick: bool) -> Vec<LoadSpec> {
    let rounds = if quick { 1 } else { 2 };
    [1usize, 4, 16, 64]
        .into_iter()
        .map(|groups| rounds_spec(groups, 4, 64, rounds, 90 + groups as u64))
        .collect()
}

/// The batch-size sweep: 4 groups, window sizes 1, 2, 4 and 8 (depth 1, so
/// only the window size varies).
pub fn batch_sweep_specs(quick: bool) -> Vec<LoadSpec> {
    let rounds = if quick { 2 } else { 4 };
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|batch| rounds_spec(4, batch, 16, rounds, 190 + batch as u64))
        .collect()
}

/// The pipeline sweep: depth 1/2/4 × batch cap 1/4/8 at **equal offered
/// load** — every cell bursts the same per-writer quota up front, so the
/// depth axis isolates what overlapping instances buys at each window
/// size. 4 writers over 4 groups.
pub fn pipeline_sweep_specs(quick: bool) -> Vec<LoadSpec> {
    let quota = if quick { 8 } else { 16 };
    let mut specs = Vec::new();
    for depth in [1usize, 2, 4] {
        for cap in [1usize, 4, 8] {
            let seed = 290 + (depth * 10 + cap) as u64;
            specs.push(burst_spec(4, cap, depth, 4, quota, seed));
        }
    }
    specs
}

/// Decided non-noop log positions across every group: the number of Paxos
/// instances that committed work.
fn instances(result: &LoadResult) -> usize {
    let checks = result.check.iter();
    checks.map(|(_, r)| r.positions - r.noop_positions).sum()
}

/// Committed transactions per Paxos instance (batching/combination
/// amortization).
fn txns_per_instance(result: &LoadResult) -> f64 {
    result.totals.committed as f64 / instances(result).max(1) as f64
}

/// Format a sweep as an aligned text table.
pub fn format_scaling_table(results: &[LoadResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "groups  batch  attempted  committed  aborted  instances  txns/inst  sim_s    agg tx/s\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:>6}  {:>5}  {:>9}  {:>9}  {:>7}  {:>9}  {:>9.2}  {:>7.2}  {:>9.1}\n",
            r.spec.keyspace.groups,
            r.spec.batch.max_batch,
            r.totals.attempted,
            r.totals.committed,
            r.totals.aborted,
            instances(r),
            txns_per_instance(r),
            r.offered_secs(),
            r.committed_tps(),
        ));
    }
    out
}

/// Format the pipeline sweep as an aligned text table with the pipeline
/// observables.
pub fn format_pipeline_table(results: &[LoadResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "depth  batch  attempted  committed  occ(avg)  depth(max)  p50(ms)  sim_s    agg tx/s\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:>5}  {:>5}  {:>9}  {:>9}  {:>8.2}  {:>10}  {:>7.2}  {:>7.2}  {:>9.1}\n",
            r.spec.batch.pipeline_depth,
            r.spec.batch.max_batch,
            r.totals.attempted,
            r.totals.committed,
            r.totals.mean_window_occupancy(),
            r.totals.max_pipeline_depth(),
            r.totals.commit_latency().p50_ms,
            r.offered_secs(),
            r.committed_tps(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{run_load, Arrival};

    #[test]
    fn small_scaling_run_commits_and_batches() {
        let spec = rounds_spec(4, 4, 4, 2, 7);
        let result = run_load(&spec);
        assert_eq!(Some(result.totals.attempted), spec.total_transactions());
        assert_eq!(
            result.totals.committed + result.totals.aborted,
            result.totals.attempted
        );
        assert!(result.totals.committed > 0);
        // Each group's first transaction takes the free slot alone; what
        // piles up behind it shares the next instance. This run measures
        // 32 commits in 18 instances (1.78 per instance); one instance per
        // transaction would be 1.0.
        assert!(
            txns_per_instance(&result) >= 1.5,
            "batch amortization missing: {} txns / {} instances",
            result.totals.committed,
            instances(&result)
        );
        assert!(result.committed_tps() > 0.0);
    }

    #[test]
    fn sweep_specs_cover_the_documented_points() {
        let groups: Vec<usize> = group_sweep_specs(true)
            .iter()
            .map(|s| s.keyspace.groups)
            .collect();
        assert_eq!(groups, vec![1, 4, 16, 64]);
        let batches: Vec<usize> = batch_sweep_specs(true)
            .iter()
            .map(|s| s.batch.max_batch)
            .collect();
        assert_eq!(batches, vec![1, 2, 4, 8]);
        assert!(group_sweep_specs(false)[0].total_transactions() > Some(0));
        // Pipeline sweep: 3 depths × 3 caps, equal per-writer quota, all of
        // it open at once.
        let specs = pipeline_sweep_specs(false);
        assert_eq!(specs.len(), 9);
        let bursts = |s: &LoadSpec| {
            matches!(s.arrival, Arrival::Closed { max_open: 16, target_tps, txns_per_actor: 16, .. }
                if target_tps == 0.0)
        };
        assert!(specs.iter().all(bursts));
    }

    #[test]
    fn pipeline_depth_two_raises_throughput_at_equal_offered_load() {
        let d1 = run_load(&burst_spec(2, 4, 1, 2, 16, 33));
        let d2 = run_load(&burst_spec(2, 4, 2, 2, 16, 33));
        assert_eq!(
            d1.totals.attempted, d2.totals.attempted,
            "equal offered load"
        );
        assert_eq!(
            d2.totals.committed, d2.totals.attempted,
            "pipelined burst must drain"
        );
        assert!(
            d2.totals.max_pipeline_depth() >= 2,
            "depth 2 must actually overlap"
        );
        assert!(
            d2.committed_tps() > d1.committed_tps(),
            "pipelining must raise throughput: depth1 {:.1} tx/s vs depth2 {:.1} tx/s",
            d1.committed_tps(),
            d2.committed_tps()
        );
    }
}
