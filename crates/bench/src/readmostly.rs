//! Read-mostly scale-out sweep: snapshot-read throughput vs serving
//! replicas.
//!
//! The sweep holds the offered 95/5 read/write mix constant and varies how
//! many datacenters serve snapshot reads (1 → all). With one serving
//! replica every read from another region pays a wide-area round trip and
//! the per-driver in-flight cap turns that latency into a throughput
//! ceiling; with a serving replica per region every read is local. The
//! headline is the aggregate completed-read throughput ratio between the
//! last and first point — the scale-out the non-aborting read plane buys —
//! plus the read p99 at each point. Every point is verified end to end:
//! the serializability checker passes, zero reads abort or return
//! unavailable, and every completed read is proven against the merged
//! decided log at its watermark.

use mdstore::Topology;
use simnet::SimDuration;
use workload::{run_load, LoadResult, LoadSpec};

/// Parameters of one read-mostly sweep (shared by every serving count).
/// Each point is [`LoadSpec::read_mostly`] — a 95/5 mix over 100 k zipfian
/// keys on the paper's VOC wide-area cluster at real RTTs, at most 4 reads
/// in flight per actor, 1.2 s of offered load — passed through
/// [`ReadMostlySweepConfig::tune`].
#[derive(Clone, Debug)]
pub struct ReadMostlySweepConfig {
    /// Serving-replica counts to sweep (e.g. `[1, 2, 3]`).
    pub serving_counts: Vec<usize>,
    /// Worker threads (= shards), 4 groups each.
    pub workers: usize,
    /// Aggregate offered load (reads + writes) in tx/s, constant across
    /// the sweep.
    pub offered_tps: f64,
    /// What this sweep changes about every point.
    pub tune: fn(LoadSpec) -> LoadSpec,
}

impl ReadMostlySweepConfig {
    /// The full sweep: serving 1/2/3 datacenters, 2 workers, 4 000 tx/s
    /// offered. Remote reads pay the ≈90 ms Virginia↔west-coast RTT, so
    /// the single-serving point caps well below offered and the all-local
    /// point does not — read throughput is expected to scale ≥ 2× from 1
    /// to 3.
    pub fn full() -> Self {
        ReadMostlySweepConfig {
            serving_counts: vec![1, 2, 3],
            workers: 2,
            offered_tps: 4_000.0,
            tune: |spec| spec,
        }
    }

    /// A CI smoke sweep: serving 1 and 3 replicas of a scaled-down VVV
    /// cluster, 1 worker, short windows — finishes in a few seconds. VVV
    /// RTTs are all intra-region, so this exercises the protocol and the
    /// per-point proofs, not the wide-area scaling headline.
    pub fn quick() -> Self {
        ReadMostlySweepConfig {
            serving_counts: vec![1, 3],
            workers: 1,
            offered_tps: 400.0,
            tune: |spec| {
                let ms = SimDuration::from_millis;
                spec.with_keys(20_000)
                    .with_windows(ms(300), ms(600))
                    .with_topology(Topology::vvv())
                    .with_rtt_scale(0.5)
            },
        }
    }

    /// The spec of one sweep point (each point perturbs the seed).
    pub fn point(&self, serving: usize, index: usize) -> LoadSpec {
        let spec = LoadSpec::read_mostly(self.workers, self.offered_tps, serving)
            .with_seed(42 + index as u64 * 97 + serving as u64);
        (self.tune)(spec)
    }
}

/// Run every point of the sweep, in serving-count order.
pub fn readmostly_sweep(config: &ReadMostlySweepConfig) -> Vec<LoadResult> {
    config
        .serving_counts
        .iter()
        .enumerate()
        .map(|(i, &serving)| run_load(&config.point(serving, i)))
        .collect()
}

/// Read-throughput scaling of a sweep: last point's completed read tx/s
/// over the first point's (`None` on fewer than two points).
pub fn read_scaling(results: &[LoadResult]) -> Option<f64> {
    let first = results.first()?.read_tps();
    let last = results.last()?.read_tps();
    if results.len() < 2 {
        return None;
    }
    Some(last / first.max(1e-9))
}

/// Format a sweep as a serving-replicas vs read-throughput table.
pub fn format_readmostly_table(results: &[LoadResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "serving  read tx/s  read p50 ms  read p99 ms  shed  stale max  w commit  w p99 ms  sat\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:>7} {:>10.1} {:>12.1} {:>12.1} {:>5} {:>10} {:>9} {:>9.1} {:>4}\n",
            r.spec.mix.serving_replicas,
            r.read_tps(),
            r.reads.latency.p50_ms,
            r.reads.latency.p99_ms,
            r.reads.shed,
            r.reads.max_staleness,
            r.totals.committed,
            r.totals.commit_latency().p99_ms,
            if r.read_saturated() { "yes" } else { "no" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{ClusterShape, KeyDistribution, ReadTotals};

    /// A one-second point that completed `reads` snapshot reads.
    fn fake(serving: usize, reads: usize) -> LoadResult {
        let second = SimDuration::from_secs(1);
        LoadResult {
            spec: LoadSpec::read_mostly(2, 4_000.0, serving).with_windows(second, second),
            reads: ReadTotals {
                completed: reads,
                verified: reads,
                ..ReadTotals::default()
            },
            ..LoadResult::default()
        }
    }

    #[test]
    fn scaling_is_last_over_first() {
        let sweep = vec![fake(1, 1_000), fake(2, 2_000), fake(3, 2_600)];
        assert!((read_scaling(&sweep).unwrap() - 2.6).abs() < 1e-9);
        assert_eq!(read_scaling(&sweep[..1]), None);
        let table = format_readmostly_table(&sweep);
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn quick_config_is_small() {
        let config = ReadMostlySweepConfig::quick();
        assert!(config.serving_counts.len() <= 2);
        let spec = config.point(3, 1);
        assert!(matches!(
            spec.shape,
            ClusterShape::Parallel { workers: 1, .. }
        ));
        assert_eq!(spec.mix.serving_replicas, 3);
        assert_eq!(spec.keyspace.groups, 4);
        assert_eq!(spec.num_actors(), 3, "one per (worker, VVV datacenter)");
        assert!(matches!(
            spec.keyspace.distribution,
            KeyDistribution::Zipfian { .. }
        ));
    }
}
