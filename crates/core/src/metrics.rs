//! Latency and commit statistics collected by clients and experiments.

use simnet::SimDuration;

/// Summary statistics over a set of latency samples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency in milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency in milliseconds (the tail the open-loop
    /// latency-vs-throughput curves report).
    pub p99_ms: f64,
    /// Maximum latency in milliseconds.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Compute summary statistics from raw samples.
    pub fn from_samples(samples: &[SimDuration]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut ms: Vec<f64> = samples.iter().map(|d| d.as_millis_f64()).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let count = ms.len();
        let mean = ms.iter().sum::<f64>() / count as f64;
        let pct = |p: f64| {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            ms[idx.min(count - 1)]
        };
        LatencyStats {
            count,
            mean_ms: mean,
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            max_ms: *ms.last().expect("non-empty"),
        }
    }
}

/// Aggregated outcome counters for a set of transactions (one client or one
/// whole experiment).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Transactions attempted.
    pub attempted: usize,
    /// Transactions committed (any round).
    pub committed: usize,
    /// Transactions aborted.
    pub aborted: usize,
    /// Committed transactions indexed by the number of promotions they
    /// needed: index 0 = committed on the first try, index 1 = one
    /// promotion, and so on (the per-round bars of Figures 4–8).
    pub commits_by_promotion: Vec<usize>,
    /// Transactions that committed as part of a combined (multi-transaction)
    /// log entry.
    pub combined_commits: usize,
    /// Read-only transactions (commit trivially, never logged).
    pub read_only: usize,
    /// Latency samples of committed transactions, in microseconds, grouped
    /// by promotion round (same indexing as `commits_by_promotion`).
    pub commit_latency_us_by_promotion: Vec<Vec<u64>>,
    /// Latency samples of aborted transactions, in microseconds.
    pub abort_latency_us: Vec<u64>,
    /// Windows a service-hosted group committer split because
    /// they were internally conflicting (a member read an earlier member's
    /// write — the `walog::combine::can_append` rule): the deferred
    /// members waited for a later instance instead of riding an invalid
    /// combination. Recorded by the committers of a service wired with
    /// [`TransactionService::with_commit_metrics`](crate::TransactionService::with_commit_metrics).
    pub batch_splits: u64,
    /// Window members aborted by the committer's optimistic revalidation at
    /// flush time: an entry decided since the member's read position had
    /// already invalidated its reads, so it never entered an instance.
    pub stale_member_aborts: u64,
    /// Multi-version store versions reclaimed by the watermark-driven GC
    /// that runs when decided entries apply (see
    /// `DatacenterCore::reclaimed_version_count`). Service-side; harnesses
    /// populate it from the datacenter cores after a run.
    pub reclaimed_versions: u64,
    /// Transactions per opened committer instance, one sample per instance:
    /// 1 while a pipeline slot is free on arrival, more when members piled
    /// up behind a full pipeline.
    pub window_occupancy: Vec<u32>,
    /// Commit-pipeline depth in flight, sampled when each instance opens
    /// (1 = flush-and-wait behaviour, ≥ 2 = overlapping instances).
    pub pipeline_depth: Vec<u32>,
    /// Absolute simulated time (microseconds) of the latest recorded
    /// outcome. Harness actors stamp it after each decision so throughput
    /// can be measured over the *working* span of a run — `run until idle`
    /// otherwise pads the span with trailing reply-timeout timers.
    pub last_decision_us: u64,
    /// Faults injected by a chaos schedule over the run (crashes,
    /// partitions, group-home moves; repairs are not counted). Populated by
    /// chaos harnesses from `ChaosSchedule::faults_injected`.
    pub faults_injected: u64,
    /// Commit attempts automatically re-submitted after an `Unavailable`
    /// outcome or a submit-patience expiry (sessions count each re-send;
    /// the transaction id never changes).
    pub resubmissions: u64,
    /// Duplicate commit submissions the services absorbed: retries of
    /// in-flight transactions and retries answered from the decided-fate
    /// memory, none of which reached the commit pipeline again.
    pub duplicate_suppressions: u64,
    /// Randomized back-offs the sessions' direct commits armed before
    /// re-preparing a position (sessions count them; the harness copies
    /// the cumulative count like `resubmissions`).
    pub direct_backoffs: u64,
    /// Positions the sessions' direct commits resolved from their home
    /// datacenter's log instead of another protocol round: skipped at the
    /// start, or lost while a round was in flight.
    pub learned_from_home_log: u64,
}

impl RunMetrics {
    /// Record one transaction outcome.
    pub fn record(&mut self, result: &crate::session::TxnResult) {
        self.attempted += 1;
        if result.read_only {
            self.read_only += 1;
        }
        if result.committed {
            self.committed += 1;
            let round = result.promotions as usize;
            if self.commits_by_promotion.len() <= round {
                self.commits_by_promotion.resize(round + 1, 0);
                self.commit_latency_us_by_promotion
                    .resize_with(round + 1, Vec::new);
            }
            self.commits_by_promotion[round] += 1;
            self.commit_latency_us_by_promotion[round].push(result.latency.as_micros());
            if result.combined {
                self.combined_commits += 1;
            }
        } else {
            self.aborted += 1;
            self.abort_latency_us.push(result.latency.as_micros());
        }
    }

    /// Merge another set of metrics into this one (e.g. per-client metrics
    /// into an experiment total).
    pub fn merge(&mut self, other: &RunMetrics) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.combined_commits += other.combined_commits;
        self.read_only += other.read_only;
        self.batch_splits += other.batch_splits;
        self.stale_member_aborts += other.stale_member_aborts;
        self.reclaimed_versions += other.reclaimed_versions;
        self.window_occupancy
            .extend_from_slice(&other.window_occupancy);
        self.pipeline_depth.extend_from_slice(&other.pipeline_depth);
        self.last_decision_us = self.last_decision_us.max(other.last_decision_us);
        self.faults_injected += other.faults_injected;
        self.resubmissions += other.resubmissions;
        self.duplicate_suppressions += other.duplicate_suppressions;
        self.direct_backoffs += other.direct_backoffs;
        self.learned_from_home_log += other.learned_from_home_log;
        if self.commits_by_promotion.len() < other.commits_by_promotion.len() {
            self.commits_by_promotion
                .resize(other.commits_by_promotion.len(), 0);
            self.commit_latency_us_by_promotion
                .resize_with(other.commits_by_promotion.len(), Vec::new);
        }
        for (i, n) in other.commits_by_promotion.iter().enumerate() {
            self.commits_by_promotion[i] += n;
        }
        for (i, samples) in other.commit_latency_us_by_promotion.iter().enumerate() {
            self.commit_latency_us_by_promotion[i].extend_from_slice(samples);
        }
        self.abort_latency_us
            .extend_from_slice(&other.abort_latency_us);
    }

    /// Commits that needed at least one promotion.
    pub fn promoted_commits(&self) -> usize {
        self.commits_by_promotion.iter().skip(1).sum()
    }

    /// Latency statistics of all committed transactions.
    pub fn commit_latency(&self) -> LatencyStats {
        let samples: Vec<SimDuration> = self
            .commit_latency_us_by_promotion
            .iter()
            .flatten()
            .map(|us| SimDuration::from_micros(*us))
            .collect();
        LatencyStats::from_samples(&samples)
    }

    /// Latency statistics of aborted transactions.
    pub fn abort_latency(&self) -> LatencyStats {
        let samples: Vec<SimDuration> = self
            .abort_latency_us
            .iter()
            .map(|us| SimDuration::from_micros(*us))
            .collect();
        LatencyStats::from_samples(&samples)
    }

    /// Latency statistics of commits at a specific promotion round.
    pub fn commit_latency_at_round(&self, round: usize) -> LatencyStats {
        let samples: Vec<SimDuration> = self
            .commit_latency_us_by_promotion
            .get(round)
            .map(|v| v.iter().map(|us| SimDuration::from_micros(*us)).collect())
            .unwrap_or_default();
        LatencyStats::from_samples(&samples)
    }

    /// Latency statistics of all transactions (committed and aborted).
    pub fn overall_latency(&self) -> LatencyStats {
        let samples: Vec<SimDuration> = self
            .commit_latency_us_by_promotion
            .iter()
            .flatten()
            .chain(self.abort_latency_us.iter())
            .map(|us| SimDuration::from_micros(*us))
            .collect();
        LatencyStats::from_samples(&samples)
    }

    /// The highest promotion round that produced a commit.
    pub fn max_promotion_round(&self) -> usize {
        self.commits_by_promotion
            .iter()
            .rposition(|n| *n > 0)
            .unwrap_or(0)
    }

    /// Mean transactions per flushed committer window (0 when no committer
    /// reported samples).
    pub fn mean_window_occupancy(&self) -> f64 {
        if self.window_occupancy.is_empty() {
            return 0.0;
        }
        self.window_occupancy.iter().map(|n| *n as u64).sum::<u64>() as f64
            / self.window_occupancy.len() as f64
    }

    /// The deepest commit pipeline observed (0 when no committer reported
    /// samples; 1 means instances never overlapped).
    pub fn max_pipeline_depth(&self) -> u32 {
        self.pipeline_depth.iter().copied().max().unwrap_or(0)
    }
}

/// A registry of per-actor metrics sinks, merged at run end.
///
/// Every recording actor (a service-hosted commit engine, a workload
/// driver) gets its *own* `Arc<Mutex<RunMetrics>>` via
/// [`MetricsHub::register`], so under the parallel runtime no two worker
/// threads ever contend on — or interleave partial updates into — a shared
/// mutable sink. The harness calls [`MetricsHub::merged`] once the run has
/// stopped, which folds every sink into one [`RunMetrics`] with the same
/// `merge` semantics the single-threaded harnesses always used.
#[derive(Default)]
pub struct MetricsHub {
    sinks: parking_lot::Mutex<Vec<std::sync::Arc<parking_lot::Mutex<RunMetrics>>>>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// Create and track one fresh sink for a recording actor.
    pub fn register(&self) -> std::sync::Arc<parking_lot::Mutex<RunMetrics>> {
        let sink = std::sync::Arc::new(parking_lot::Mutex::new(RunMetrics::default()));
        self.sinks.lock().push(sink.clone());
        sink
    }

    /// Number of registered sinks.
    pub fn len(&self) -> usize {
        self.sinks.lock().len()
    }

    /// Whether no sinks were registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold every registered sink into one aggregate. Call after the run
    /// has stopped (sinks still being written to are merged mid-flight but
    /// never torn, since each is read under its own lock).
    pub fn merged(&self) -> RunMetrics {
        let mut total = RunMetrics::default();
        for sink in self.sinks.lock().iter() {
            total.merge(&sink.lock());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TxnResult;

    fn result(committed: bool, promotions: u32, latency_ms: u64) -> TxnResult {
        TxnResult {
            committed,
            read_only: false,
            promotions,
            combined: false,
            rounds: 1,
            latency: SimDuration::from_millis(latency_ms),
            abort_reason: None,
            txn: None,
        }
    }

    #[test]
    fn latency_stats_from_samples() {
        let samples: Vec<SimDuration> = (1..=100).map(SimDuration::from_millis).collect();
        let stats = LatencyStats::from_samples(&samples);
        assert_eq!(stats.count, 100);
        assert!((stats.mean_ms - 50.5).abs() < 1e-9);
        assert!((stats.p50_ms - 50.0).abs() <= 1.0);
        assert!((stats.p95_ms - 95.0).abs() <= 1.0);
        assert_eq!(stats.max_ms, 100.0);
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
    }

    #[test]
    fn record_groups_commits_by_promotion_round() {
        let mut m = RunMetrics::default();
        m.record(&result(true, 0, 10));
        m.record(&result(true, 0, 20));
        m.record(&result(true, 2, 30));
        m.record(&result(false, 1, 40));
        assert_eq!(m.attempted, 4);
        assert_eq!(m.committed, 3);
        assert_eq!(m.aborted, 1);
        assert_eq!(m.commits_by_promotion, vec![2, 0, 1]);
        assert_eq!(m.promoted_commits(), 1);
        assert_eq!(m.max_promotion_round(), 2);
        assert_eq!(m.commit_latency().count, 3);
        assert_eq!(m.commit_latency_at_round(0).count, 2);
        assert_eq!(m.commit_latency_at_round(7).count, 0);
        assert_eq!(m.overall_latency().count, 4);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = RunMetrics::default();
        a.record(&result(true, 0, 10));
        let mut b = RunMetrics::default();
        b.record(&result(true, 3, 15));
        b.record(&result(false, 0, 5));
        b.batch_splits = 2;
        b.stale_member_aborts = 1;
        b.reclaimed_versions = 7;
        b.window_occupancy = vec![4, 2];
        b.pipeline_depth = vec![1, 2];
        b.direct_backoffs = 2;
        b.learned_from_home_log = 5;
        a.learned_from_home_log = 1;
        a.window_occupancy = vec![6];
        a.pipeline_depth = vec![1];
        a.merge(&b);
        assert_eq!(a.attempted, 3);
        assert_eq!(a.committed, 2);
        assert_eq!(a.commits_by_promotion, vec![1, 0, 0, 1]);
        assert_eq!(a.abort_latency_us.len(), 1);
        assert_eq!(a.batch_splits, 2);
        assert_eq!(a.stale_member_aborts, 1);
        assert_eq!(a.reclaimed_versions, 7);
        assert_eq!((a.direct_backoffs, a.learned_from_home_log), (2, 6));
        assert_eq!(a.window_occupancy, vec![6, 4, 2]);
        assert_eq!(a.max_pipeline_depth(), 2);
        assert!((a.mean_window_occupancy() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn pipeline_observability_defaults_are_empty() {
        let m = RunMetrics::default();
        assert_eq!(m.mean_window_occupancy(), 0.0);
        assert_eq!(m.max_pipeline_depth(), 0);
    }

    #[test]
    fn p99_tracks_the_tail() {
        let samples: Vec<SimDuration> = (1..=1000).map(SimDuration::from_millis).collect();
        let stats = LatencyStats::from_samples(&samples);
        assert!((stats.p99_ms - 990.0).abs() <= 2.0);
        assert!(stats.p99_ms >= stats.p95_ms);
    }

    #[test]
    fn hub_merges_independent_sinks() {
        let hub = MetricsHub::new();
        assert!(hub.is_empty());
        let a = hub.register();
        let b = hub.register();
        a.lock().record(&result(true, 0, 10));
        b.lock().record(&result(false, 0, 20));
        b.lock().resubmissions = 3;
        assert_eq!(hub.len(), 2);
        let total = hub.merged();
        assert_eq!(total.attempted, 2);
        assert_eq!(total.committed, 1);
        assert_eq!(total.aborted, 1);
        assert_eq!(total.resubmissions, 3);
    }
}
