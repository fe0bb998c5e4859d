//! What the load actors observed, in plain types, and the order statistics
//! the metrics are made of.

use crate::metrics::Better;

/// One completed snapshot read: enough to prove it against the decided log.
#[derive(Clone, Debug)]
pub struct ReadSample {
    pub group: u32,
    /// Snapshot watermark the read ran at (a log position).
    pub at: u64,
    /// Packed `(row, attribute)` item, as the log's conflict sets pack it.
    pub item: u64,
    pub observed: Option<String>,
}

/// Client-side observations of one load actor (merged over actors at run end).
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Transactions (including snapshot reads) that were offered.
    pub attempted: u64,
    /// Of those, the read/write transactions (the rest are snapshot reads).
    pub rw_attempted: u64,
    /// Read/write transactions that committed.
    pub committed: u64,
    /// Read/write transactions the concurrency control aborted: an answered
    /// request, counted against `commit_ratio`, not a failure.
    pub aborted: u64,
    /// Operations that got no usable answer: `Unavailable`, a snapshot read
    /// the replica could not serve, or anything unanswered at the deadline.
    pub failed: u64,
    /// Reads completed (in-transaction reads and snapshot reads).
    pub reads_done: u64,
    /// Writes carried by committed transactions.
    pub writes_done: u64,
    /// Per commit: submit (closed loop) or scheduled arrival (open loop) to
    /// the committed reply, µs on the runtime's clock.
    pub commit_latency_us: Vec<u64>,
    /// Per commit: `(group index, decision instant µs)`.
    pub commit_at: Vec<(u32, u64)>,
    /// Per commit: `(group index, client, sequence)` for the exactly-once audit.
    pub committed_ids: Vec<(u32, u32, u64)>,
    /// Commits by number of Paxos-CP promotions they needed.
    pub commits_by_promotion: Vec<u64>,
    /// Commits that rode a combined (multi-transaction) log entry.
    pub combined: u64,
    /// Per snapshot read: issue to reply, µs.
    pub read_latency_us: Vec<u64>,
    pub read_samples: Vec<ReadSample>,
    /// Home applied prefix minus serving watermark at issue, log positions.
    pub staleness_sum: u64,
    pub staleness_max: u64,
    /// Automatic session re-submissions.
    pub resubmissions: u64,
    /// How late the generator issued an arrival after it was due, µs.
    pub max_late_us: u64,
    /// Traced runs only: wall-clock instant of every commit, ns since the
    /// load phase began.
    pub commit_wall_ns: Vec<u64>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.rw_attempted += other.rw_attempted;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.failed += other.failed;
        self.reads_done += other.reads_done;
        self.writes_done += other.writes_done;
        self.commit_latency_us.extend(other.commit_latency_us);
        self.commit_at.extend(other.commit_at);
        self.committed_ids.extend(other.committed_ids);
        if self.commits_by_promotion.len() < other.commits_by_promotion.len() {
            self.commits_by_promotion
                .resize(other.commits_by_promotion.len(), 0);
        }
        for (round, n) in other.commits_by_promotion.iter().enumerate() {
            self.commits_by_promotion[round] += n;
        }
        self.combined += other.combined;
        self.read_latency_us.extend(other.read_latency_us);
        self.read_samples.extend(other.read_samples);
        self.staleness_sum += other.staleness_sum;
        self.staleness_max = self.staleness_max.max(other.staleness_max);
        self.resubmissions += other.resubmissions;
        self.max_late_us = self.max_late_us.max(other.max_late_us);
        self.commit_wall_ns.extend(other.commit_wall_ns);
    }

    pub fn record_commit(&mut self, promotions: u32, combined: bool) {
        let round = promotions as usize;
        if self.commits_by_promotion.len() <= round {
            self.commits_by_promotion.resize(round + 1, 0);
        }
        self.commits_by_promotion[round] += 1;
        self.combined += u64::from(combined);
    }
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The quartile of unsorted values on their better side (interpolated): the
/// lower one when less is better, the upper one when more is. This sandbox's
/// neighbours slow a repetition down and never speed one up, so the better
/// side of a run's repetitions is the program's own cost and the worse side
/// is the host's mood; a change to the program moves both.
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "quartile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let rank = (sorted.len() - 1) as f64
        * match better {
            Better::Lower => 0.25,
            Better::Higher => 0.75,
        };
    let below = rank.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// The `p`-quantile (nearest rank) of already sorted samples.
pub fn quantile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// The highest of p99 / p95 / p90 that still has at least ten samples beyond
/// it, so the reported tail is an order statistic and not one outlier. Every
/// full-size workload supports p99; the fallbacks serve the 1/10 and 1/20
/// sizes. Returns `(percentile, value)`; the median for tiny samples.
pub fn supported_tail(sorted: &[u64]) -> (f64, u64) {
    for p in [0.99, 0.95, 0.90] {
        if (sorted.len() as f64 * (1.0 - p)) >= 10.0 {
            return (p * 100.0, quantile_sorted(sorted, p));
        }
    }
    (50.0, quantile_sorted(sorted, 0.5))
}

/// Longest gap, µs, between consecutive commits of any one group between the
/// first and last commit of the run (`commit_at` pairs, any order).
pub fn max_group_gap_us(commit_at: &[(u32, u64)]) -> u64 {
    let mut sorted = commit_at.to_vec();
    sorted.sort_unstable();
    sorted
        .windows(2)
        .filter(|pair| pair[0].0 == pair[1].0)
        .map(|pair| pair[1].1 - pair[0].1)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let five = [50.0, 10.0, 30.0, 20.0, 40.0];
        assert_eq!(quiet_quartile(&five, Better::Lower), 20.0);
        assert_eq!(quiet_quartile(&five, Better::Higher), 40.0);
        assert_eq!(quiet_quartile(&[1.0, 2.0], Better::Lower), 1.25);
        assert_eq!(quiet_quartile(&[7.0], Better::Higher), 7.0);
        let sorted: Vec<u64> = (1..=2000).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 1001);
        assert_eq!(supported_tail(&sorted).0, 99.0);
        assert_eq!(supported_tail(&sorted[..150]).0, 90.0);
        assert_eq!(supported_tail(&sorted[..20]).0, 50.0);
    }

    #[test]
    fn group_gap_ignores_other_groups() {
        let at = [(0, 10), (1, 12), (0, 50), (1, 13), (0, 55)];
        assert_eq!(max_group_gap_us(&at), 40);
        assert_eq!(max_group_gap_us(&[]), 0);
    }
}
