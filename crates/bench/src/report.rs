//! Plain-text tables mirroring the rows/series the paper's figures plot.

use mdstore::RunMetrics;
use workload::LoadResult;

/// Maximum promotion round shown as its own column; deeper rounds are folded
/// into the last column (the paper observed at most seven promotions).
const MAX_ROUNDS_SHOWN: usize = 8;

fn commits_row(metrics: &RunMetrics) -> Vec<usize> {
    let mut row = vec![0usize; MAX_ROUNDS_SHOWN];
    for (round, count) in metrics.commits_by_promotion.iter().enumerate() {
        let idx = round.min(MAX_ROUNDS_SHOWN - 1);
        row[idx] += count;
    }
    row
}

/// Commit-count table: one row per experiment, columns = commits by
/// promotion round plus totals (the bars of Figures 4(a), 5(a), 6, 7, 8).
pub fn format_commit_table(results: &[LoadResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>9} {:>7}  {}\n",
        "experiment", "attempted", "commits", "by promotion round (0,1,2,...)"
    ));
    for result in results {
        let rounds = commits_row(&result.totals);
        let rounds_str = rounds
            .iter()
            .map(|n| format!("{n:>4}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{:<28} {:>9} {:>7}  {}\n",
            result.spec.name, result.totals.attempted, result.totals.committed, rounds_str
        ));
    }
    out
}

/// Latency table: mean/median/p95 commit latency overall and for round 0
/// (the stacked-latency view of Figures 4(b) and 5(b)), with the direct
/// route's back-offs and the positions it learned from its home log.
pub fn format_latency_table(results: &[LoadResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>10} {:>10} {:>10} {:>12} {:>12} {:>9} {:>8}\n",
        "experiment",
        "mean(ms)",
        "p50(ms)",
        "p95(ms)",
        "round0(ms)",
        "promoted(ms)",
        "backoffs",
        "learned"
    ));
    for result in results {
        let all = result.totals.commit_latency();
        let round0 = result.totals.commit_latency_at_round(0);
        let promoted_samples: Vec<simnet::SimDuration> = result
            .totals
            .commit_latency_us_by_promotion
            .iter()
            .skip(1)
            .flatten()
            .map(|us| simnet::SimDuration::from_micros(*us))
            .collect();
        let promoted = mdstore::LatencyStats::from_samples(&promoted_samples);
        out.push_str(&format!(
            "{:<28} {:>10.1} {:>10.1} {:>10.1} {:>12.1} {:>12.1} {:>9} {:>8}\n",
            result.spec.name,
            all.mean_ms,
            all.p50_ms,
            all.p95_ms,
            round0.mean_ms,
            promoted.mean_ms,
            result.totals.direct_backoffs,
            result.totals.learned_from_home_log
        ));
    }
    out
}

/// Per-datacenter table for Figure 8: commits and mean latency of the
/// workload instance placed in each datacenter.
pub fn format_per_replica_table(results: &[LoadResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>8} {:>10} {:>9} {:>10} {:>12}\n",
        "experiment", "replica", "attempted", "commits", "promoted", "mean lat(ms)"
    ));
    for result in results {
        let mut replicas: Vec<usize> = result.actor_replicas.clone();
        replicas.sort_unstable();
        replicas.dedup();
        for replica in replicas {
            let metrics = result.metrics_for_replica(replica);
            out.push_str(&format!(
                "{:<28} {:>8} {:>10} {:>9} {:>10} {:>12.1}\n",
                result.spec.name,
                replica,
                metrics.attempted,
                metrics.committed,
                metrics.promoted_commits(),
                metrics.commit_latency().mean_ms
            ));
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render experiment results as a JSON array (hand-rolled — the build
/// environment has no serde). Exports every `RunMetrics` counter (the
/// `metrics-completeness` lint holds this function to that) plus identity,
/// latency summaries and network totals.
pub fn results_to_json(results: &[LoadResult]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let latency = r.totals.commit_latency();
        let abort_latency = r.totals.abort_latency();
        let rounds = r
            .totals
            .commits_by_promotion
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            concat!(
                "  {{\"name\": \"{}\", \"cluster\": \"{}\", \"protocol\": \"{}\", ",
                "\"attempted\": {}, \"committed\": {}, \"aborted\": {}, ",
                "\"read_only\": {}, \"unavailable\": {}, ",
                "\"combined_commits\": {}, ",
                "\"reclaimed_versions\": {}, \"batch_splits\": {}, ",
                "\"stale_member_aborts\": {}, \"mean_window_occupancy\": {:.3}, ",
                "\"max_pipeline_depth\": {}, ",
                "\"faults_injected\": {}, \"resubmissions\": {}, ",
                "\"duplicate_suppressions\": {}, \"last_decision_us\": {}, ",
                "\"direct_backoffs\": {}, \"learned_from_home_log\": {}, ",
                "\"commits_by_promotion\": [{}], ",
                "\"commit_latency_ms\": {{\"mean\": {:.3}, \"p50\": {:.3}, \"p95\": {:.3}, \"max\": {:.3}}}, ",
                "\"abort_latency_ms\": {{\"mean\": {:.3}, \"p50\": {:.3}, \"p95\": {:.3}, \"max\": {:.3}}}, ",
                "\"messages_sent\": {}, \"messages_delivered\": {}, \"duration_s\": {:.3}}}{}\n",
            ),
            json_escape(&r.spec.name),
            json_escape(&r.spec.topology.name()),
            json_escape(r.spec.client.protocol.name()),
            r.totals.attempted,
            r.totals.committed,
            r.totals.aborted,
            r.totals.read_only,
            r.unavailable,
            r.totals.combined_commits,
            r.totals.reclaimed_versions,
            r.totals.batch_splits,
            r.totals.stale_member_aborts,
            r.totals.mean_window_occupancy(),
            r.totals.max_pipeline_depth(),
            r.totals.faults_injected,
            r.totals.resubmissions,
            r.totals.duplicate_suppressions,
            r.totals.last_decision_us,
            r.totals.direct_backoffs,
            r.totals.learned_from_home_log,
            rounds,
            latency.mean_ms,
            latency.p50_ms,
            latency.p95_ms,
            latency.max_ms,
            abort_latency.mean_ms,
            abort_latency.p50_ms,
            abort_latency.p95_ms,
            abort_latency.max_ms,
            r.net.sent,
            r.net.delivered,
            r.duration.as_secs_f64(),
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdstore::RunMetrics;
    use simnet::SimDuration;
    use workload::LoadSpec;

    fn fake_result(name: &str) -> LoadResult {
        let totals = RunMetrics {
            attempted: 10,
            committed: 7,
            aborted: 3,
            commits_by_promotion: vec![5, 2],
            commit_latency_us_by_promotion: vec![vec![1_000, 2_000], vec![5_000]],
            ..RunMetrics::default()
        };
        LoadResult {
            spec: LoadSpec::default().named(name),
            totals: totals.clone(),
            per_actor: vec![totals],
            actor_replicas: vec![0],
            duration: SimDuration::from_secs(1),
            ..LoadResult::default()
        }
    }

    #[test]
    fn tables_contain_the_experiment_rows() {
        let results = vec![fake_result("exp-a"), fake_result("exp-b")];
        let commits = format_commit_table(&results);
        assert!(commits.contains("exp-a") && commits.contains("exp-b"));
        assert!(commits.contains("   5    2"));
        let latency = format_latency_table(&results);
        assert!(latency.contains("exp-a"));
        let per_replica = format_per_replica_table(&results);
        assert!(per_replica.contains("exp-a"));
        assert!(per_replica.lines().count() >= 3);
    }

    #[test]
    fn json_output_contains_core_fields_and_escapes() {
        let mut results = vec![fake_result("exp-a"), fake_result("quote\"name")];
        results[0].totals.combined_commits = 3;
        results[0].totals.reclaimed_versions = 11;
        results[0].totals.batch_splits = 2;
        results[0].totals.window_occupancy = vec![4];
        results[0].totals.pipeline_depth = vec![2];
        results[0].totals.read_only = 1;
        results[0].unavailable = 4;
        results[0].totals.faults_injected = 6;
        results[0].totals.resubmissions = 8;
        results[0].totals.duplicate_suppressions = 5;
        results[0].totals.last_decision_us = 900_000;
        results[0].totals.direct_backoffs = 9;
        results[0].totals.learned_from_home_log = 12;
        results[0].totals.abort_latency_us = vec![3_000];
        let json = results_to_json(&results);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert!(json.contains("\"name\": \"exp-a\""));
        assert!(json.contains("quote\\\"name"));
        assert!(json.contains("\"commits_by_promotion\": [5, 2]"));
        assert!(json.contains("\"combined_commits\": 3"));
        assert!(json.contains("\"reclaimed_versions\": 11"));
        assert!(json.contains("\"batch_splits\": 2"));
        assert!(json.contains("\"mean_window_occupancy\": 4.000"));
        assert!(json.contains("\"max_pipeline_depth\": 2"));
        assert!(json.contains("\"read_only\": 1"));
        assert!(json.contains("\"unavailable\": 4"));
        assert!(json.contains("\"faults_injected\": 6"));
        assert!(json.contains("\"resubmissions\": 8"));
        assert!(json.contains("\"duplicate_suppressions\": 5"));
        assert!(json.contains("\"last_decision_us\": 900000"));
        assert!(json.contains("\"direct_backoffs\": 9, \"learned_from_home_log\": 12"));
        assert!(json.contains("\"abort_latency_ms\": {\"mean\": 3.000"));
    }

    #[test]
    fn deep_promotion_rounds_fold_into_last_column() {
        let metrics = RunMetrics {
            commits_by_promotion: vec![1; 12],
            ..RunMetrics::default()
        };
        let row = commits_row(&metrics);
        assert_eq!(row.len(), 8);
        assert_eq!(row[7], 5); // rounds 7..11 folded
        assert_eq!(row.iter().sum::<usize>(), 12);
    }
}
