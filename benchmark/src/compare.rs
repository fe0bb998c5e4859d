//! `compare A.json B.json`: apply each end-to-end metric's bound and
//! direction to two result files written by `run --out`, one row per
//! (workload, metric).

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::tally::median;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the first and third quartile (as Python's
/// `statistics.quantiles(values, n=4)` computes them) over the median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let n = sorted.len();
    let quartile = |k: usize| {
        // The exclusive method, extrapolating at the ends exactly as
        // Python does: cut point k(n+1)/4 between neighbours j-1 and j.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / mid.abs()
    }
}

/// Judge `b` against parent `a` for one metric.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, widest_spread: f64) -> Verdict {
    if a == b {
        return Verdict::Same;
    }
    if widest_spread > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn samples_of(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("samples")
        .and_then(|s| s.get(metric))
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn failed_share(workload: &Json) -> f64 {
    let number = |key| workload.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    number("failed") / number("attempted").max(1.0)
}

/// Print the comparison; `Ok(true)` when nothing got worse.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let a = Json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = Json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    let workloads_of = |file: &Json| {
        file.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("no \"workloads\" object")
    };
    let (a_workloads, b_workloads) = (workloads_of(&a)?, workloads_of(&b)?);
    let mut ok = true;
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (name, a_workload) in &a_workloads {
        let Some(b_workload) = b_workloads.get(name) else {
            println!("{name:<18} missing from the second file");
            ok = false;
            continue;
        };
        let metric = |file: &Json, metric: &str| {
            file.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        for def in END_TO_END {
            let (Some(a_value), Some(b_value)) =
                (metric(a_workload, def.name), metric(b_workload, def.name))
            else {
                continue;
            };
            let widest = spread(&samples_of(a_workload, def.name))
                .max(spread(&samples_of(b_workload, def.name)));
            let verdict = judge(a_value, b_value, def.better, def.bound, widest);
            ok &= verdict != Verdict::Worse;
            println!(
                "{name:<18} {:<22} {a_value:>14.4} {b_value:>14.4} {:>+7.1}% {:>6.0}%  {}",
                def.name,
                (b_value - a_value) / a_value.abs() * 100.0,
                def.bound * 100.0,
                verdict.as_str()
            );
        }
        let (a_failed, b_failed) = (failed_share(a_workload), failed_share(b_workload));
        let verdict = if b_failed > a_failed {
            Verdict::Worse
        } else {
            Verdict::Same
        };
        ok &= verdict != Verdict::Worse;
        println!(
            "{name:<18} {:<22} {a_failed:>14.6} {b_failed:>14.6} {:>8} {:>7}  {}",
            "failed_ops_share",
            "",
            "none",
            verdict.as_str()
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((spread(&[20.0, 10.0, 40.0]) - 30.0 / 20.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(judge(100.0, 100.0, Better::Lower, 0.1, 0.5), Verdict::Same);
        assert_eq!(judge(100.0, 105.0, Better::Lower, 0.1, 0.01), Verdict::Same);
        assert_eq!(
            judge(100.0, 115.0, Better::Lower, 0.1, 0.01),
            Verdict::Worse
        );
        assert_eq!(
            judge(100.0, 85.0, Better::Lower, 0.1, 0.01),
            Verdict::Better
        );
        assert_eq!(
            judge(100.0, 85.0, Better::Higher, 0.1, 0.01),
            Verdict::Worse
        );
        assert_eq!(
            judge(100.0, 115.0, Better::Higher, 0.1, 0.01),
            Verdict::Better
        );
        assert_eq!(
            judge(100.0, 115.0, Better::Lower, 0.1, 0.2),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_flags_a_regression_and_a_larger_failed_share() {
        let file = |cps: f64, failed: u64| {
            format!(
                "{{\"workloads\": {{\"w\": {{\"attempted\": 100, \"failed\": {failed}, \"metrics\": {{\"commits_per_cpu_s\": {{\"value\": {cps}, \"unit\": \"1/s\"}}}}, \"samples\": {{\"commits_per_cpu_s\": [{cps}, {cps}]}}}}}}}}"
            )
        };
        assert!(compare(&file(1000.0, 0), &file(990.0, 0)).unwrap());
        assert!(!compare(&file(1000.0, 0), &file(600.0, 0)).unwrap());
        assert!(!compare(&file(1000.0, 0), &file(1000.0, 1)).unwrap());
    }
}
