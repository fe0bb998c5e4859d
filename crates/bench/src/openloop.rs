//! Open-loop latency-vs-throughput sweeps on the multi-threaded parallel
//! runtime.
//!
//! For each worker-thread count the sweep offers load on an auto-doubling
//! ladder — each rung doubles the offered tx/s — until the cluster
//! saturates (committed throughput falls below 90 % of offered, or
//! commits start being given up as unavailable) or the rung cap is hit.
//! Each point reports commit latency percentiles measured from *scheduled
//! arrival* (open loop: no coordinated omission) and the committed
//! throughput; the knee is the last unsaturated rung.
//!
//! **Weak scaling.** The sweep holds *groups per worker* constant, so the
//! 1/2/4-worker points run 8/16/32 groups: each added worker brings a full
//! replica set with its own group commit pipelines, exactly how Spinnaker
//! scales by adding partitioned servers. Per-group capacity is bound by
//! wide-area commit latency (batch × pipeline-depth per instance RTT),
//! not CPU, so peak committed throughput scales with worker count even on
//! a small host — and on a multi-core host the worker threads additionally
//! run genuinely in parallel. Every point is verified by the
//! serializability checker before its numbers are reported.

use mdstore::{LatencyStats, Topology};
use simnet::SimDuration;
use workload::{run_load, LoadResult, LoadSpec};

/// Parameters of one open-loop sweep (shared by every worker count). Each
/// point is [`LoadSpec::open_loop`] — a million zipfian keys
/// (`theta = 0.99`) on the paper's VOC wide-area cluster at real RTTs,
/// 1.2 s of offered load — passed through [`OpenLoopSweepConfig::tune`].
#[derive(Clone, Debug)]
pub struct OpenLoopSweepConfig {
    /// Worker-thread counts to sweep.
    pub worker_counts: Vec<usize>,
    /// Transaction groups per worker (held constant — weak scaling).
    pub groups_per_worker: usize,
    /// First rung of the offered-load ladder, in tx/s per worker; rung
    /// `i` offers `base * workers * 2^i`.
    pub base_tps_per_worker: f64,
    /// Ladder length cap.
    pub max_rungs: usize,
    /// What this sweep changes about every point.
    pub tune: fn(LoadSpec) -> LoadSpec,
}

impl OpenLoopSweepConfig {
    /// The full sweep: 1/2/4 workers, 8 groups per worker.
    ///
    /// Modest windows (batch 4, depth 1) keep per-group capacity bound by
    /// the wide-area commit latency — a few hundred tx/s per worker's 8
    /// groups — so the weak-scaling ceiling grows with worker count
    /// without the sweep degenerating into a host-CPU benchmark even on a
    /// small machine.
    pub fn full() -> Self {
        OpenLoopSweepConfig {
            worker_counts: vec![1, 2, 4],
            groups_per_worker: 8,
            base_tps_per_worker: 100.0,
            max_rungs: 5,
            tune: |mut spec| {
                spec.batch = spec.batch.with_max_batch(4).with_pipeline_depth(1);
                spec
            },
        }
    }

    /// A CI smoke sweep: 1/2 workers, shorter windows, a scaled-down VVV
    /// cluster and a two-rung ladder — finishes in a few seconds.
    pub fn quick() -> Self {
        OpenLoopSweepConfig {
            worker_counts: vec![1, 2],
            groups_per_worker: 4,
            base_tps_per_worker: 100.0,
            max_rungs: 2,
            tune: |spec| {
                let ms = SimDuration::from_millis;
                spec.with_keys(50_000)
                    .with_windows(ms(300), ms(600))
                    .with_topology(Topology::vvv())
                    .with_rtt_scale(0.5)
            },
        }
    }

    /// The spec of one sweep point (each rung perturbs the seed).
    pub fn point(&self, workers: usize, offered_tps: f64, rung: usize) -> LoadSpec {
        let workers = workers.max(1);
        let spec = LoadSpec::open_loop(workers, offered_tps)
            .with_groups(self.groups_per_worker.max(1) * workers)
            .with_seed(42 + rung as u64 * 101 + workers as u64);
        (self.tune)(spec)
    }
}

/// Run the offered-load ladder for one worker count: double the offered
/// rate each rung, stop one rung after saturation (the saturated point
/// anchors the right end of the latency-throughput curve).
pub fn openloop_ladder(config: &OpenLoopSweepConfig, workers: usize) -> Vec<LoadResult> {
    let mut results = Vec::new();
    let mut offered = config.base_tps_per_worker * workers.max(1) as f64;
    for rung in 0..config.max_rungs.max(1) {
        let result = run_load(&config.point(workers, offered, rung));
        let saturated = result.saturated();
        results.push(result);
        if saturated {
            break;
        }
        offered *= 2.0;
    }
    results
}

/// The knee of a ladder: the last unsaturated point (highest offered load
/// the cluster kept up with), if any rung was unsaturated.
pub fn knee(results: &[LoadResult]) -> Option<&LoadResult> {
    results.iter().rev().find(|r| !r.saturated())
}

/// Peak committed throughput over a ladder (tx/s).
pub fn peak_committed_tps(results: &[LoadResult]) -> f64 {
    results
        .iter()
        .map(|r| r.committed_tps())
        .fold(0.0, f64::max)
}

/// Format one ladder as a latency-vs-throughput table.
pub fn format_openloop_table(results: &[LoadResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "workers groups  offered tx/s  committed tx/s    p50 ms    p99 ms  commits   aborts  unavail  sat\n",
    );
    for r in results {
        let LatencyStats { p50_ms, p99_ms, .. } = r.totals.commit_latency();
        out.push_str(&format!(
            "{:>7} {:>6} {:>13.0} {:>15.1} {:>9.1} {:>9.1} {:>8} {:>8} {:>8} {:>4}\n",
            r.spec.workers(),
            r.spec.keyspace.groups,
            r.spec.offered_tps(),
            r.committed_tps(),
            p50_ms,
            p99_ms,
            r.totals.committed,
            r.totals.aborted,
            r.unavailable,
            if r.saturated() { "yes" } else { "no" },
        ));
    }
    out
}

/// Format the cross-worker summary: peak committed throughput and knee per
/// worker count, plus the scaling ratio of the last worker count over the
/// first.
pub fn format_openloop_summary(ladders: &[(usize, Vec<LoadResult>)]) -> String {
    let mut out = String::new();
    out.push_str("workers  peak committed tx/s  knee offered tx/s  knee p99 ms\n");
    for (workers, results) in ladders {
        let peak = peak_committed_tps(results);
        match knee(results) {
            Some(k) => out.push_str(&format!(
                "{:>7} {:>20.1} {:>18.0} {:>12.1}\n",
                workers,
                peak,
                k.spec.offered_tps(),
                k.totals.commit_latency().p99_ms
            )),
            // Every rung saturated: there is no knee to report. Say so
            // instead of printing a degenerate (0, 0) row — on a host
            // with fewer cores than workers the first rung can already
            // be CPU-bound, and a silent zero knee reads as a protocol
            // regression (see docs/BENCHMARKS.md on the w4 row).
            None => out.push_str(&format!(
                "{:>7} {:>20.1} {:>18} {:>12}  saturated at every rung (no knee; host-bound?)\n",
                workers, peak, "-", "-"
            )),
        }
    }
    if let (Some(first), Some(last)) = (ladders.first(), ladders.last()) {
        if ladders.len() > 1 {
            let base = peak_committed_tps(&first.1).max(1e-9);
            let top = peak_committed_tps(&last.1);
            out.push_str(&format!(
                "scaling: {}w peak is {:.2}x the {}w peak (weak scaling, {} groups/worker)\n",
                last.0,
                top / base,
                first.0,
                results_groups_per_worker(ladders),
            ));
        }
    }
    out
}

fn results_groups_per_worker(ladders: &[(usize, Vec<LoadResult>)]) -> usize {
    ladders
        .first()
        .and_then(|(w, results)| results.first().map(|r| r.spec.keyspace.groups / w.max(&1)))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdstore::RunMetrics;
    use workload::{ClusterShape, KeyDistribution};

    /// A one-second point that committed `committed` transactions.
    fn fake(workers: usize, offered: f64, committed: usize, saturated: bool) -> LoadResult {
        let second = SimDuration::from_secs(1);
        let result = LoadResult {
            spec: LoadSpec::open_loop(workers, offered).with_windows(second, second),
            totals: RunMetrics {
                attempted: 100,
                committed,
                ..RunMetrics::default()
            },
            ..LoadResult::default()
        };
        assert_eq!(result.saturated(), saturated);
        result
    }

    #[test]
    fn knee_is_last_unsaturated_point() {
        let ladder = vec![
            fake(1, 100.0, 99, false),
            fake(1, 200.0, 198, false),
            fake(1, 400.0, 250, true),
        ];
        assert_eq!(knee(&ladder).unwrap().spec.offered_tps(), 200.0);
        assert!((peak_committed_tps(&ladder) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn tables_render_every_row() {
        let ladders = vec![
            (
                1,
                vec![fake(1, 100.0, 99, false), fake(1, 200.0, 150, true)],
            ),
            (
                2,
                vec![fake(2, 200.0, 199, false), fake(2, 400.0, 320, true)],
            ),
        ];
        let table = format_openloop_table(&ladders[0].1);
        assert_eq!(table.lines().count(), 3);
        let summary = format_openloop_summary(&ladders);
        assert!(summary.contains("2w peak is"));
        assert!(summary.contains("groups/worker"));
    }

    #[test]
    fn summary_reports_saturation_instead_of_a_zero_knee() {
        let ladders = vec![(4, vec![fake(4, 400.0, 250, true)])];
        let summary = format_openloop_summary(&ladders);
        assert!(
            summary.contains("saturated at every rung"),
            "a knee-less ladder must be called out explicitly: {summary}"
        );
        assert!(!summary.contains(" 0  "), "no degenerate zero knee");
    }

    #[test]
    fn quick_config_is_small() {
        let config = OpenLoopSweepConfig::quick();
        assert!(config.max_rungs <= 2);
        let spec = config.point(2, 200.0, 0);
        assert!(matches!(
            spec.shape,
            ClusterShape::Parallel { workers: 2, .. }
        ));
        assert_eq!(spec.keyspace.groups, 8);
        assert_eq!(spec.num_actors(), 4);
        assert!(matches!(
            spec.keyspace.distribution,
            KeyDistribution::Zipfian { .. }
        ));
    }
}
