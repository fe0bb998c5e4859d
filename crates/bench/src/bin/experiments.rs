//! Experiment harness CLI: regenerate every table/figure of the paper.
//!
//! ```text
//! cargo run --release -p bench-suite --bin experiments -- all
//! cargo run --release -p bench-suite --bin experiments -- fig6 --quick
//! cargo run --release -p bench-suite --bin experiments -- fig4a --json out.json
//! cargo run --release -p bench-suite --bin experiments -- scaling
//! ```
//!
//! `scaling` runs the sharded multi-group, batch-size and pipeline-depth
//! sweeps, and
//! `routes` the direct-vs-submitted commit-route comparison (neither part
//! of the paper; see `docs/BENCHMARKS.md`); `all` includes them alongside
//! the paper figures and the ablation.
//!
//! `openloop` runs the open-loop latency-vs-throughput sweep on the
//! multi-threaded parallel runtime (wall-clock, not simulated time — so it
//! is *not* part of `all`). `readmostly` runs the snapshot-read scale-out
//! sweep (read throughput vs serving-replica count) on the same runtime
//! and is likewise opted into explicitly. `chaos` runs the rolling-failure scenario
//! (leader crashes, flapping partition, group-home churn) under open-loop
//! load on the deterministic simulation; it asserts serializability,
//! exactly-once and liveness, and is likewise opted into explicitly.
//! `--quick` runs the CI smoke variants.
//!
//! An unknown target, `--json` without a path, or a `--json` path that
//! cannot be created prints the usage and exits with status 2 before
//! anything runs.

use bench_suite::{
    ablation_specs, batch_sweep_specs, fig4_specs, fig5_specs, fig6_specs, fig7_specs, fig8_specs,
    format_commit_table, format_latency_table, format_openloop_summary, format_openloop_table,
    format_per_replica_table, format_pipeline_table, format_readmostly_table, format_route_table,
    format_scaling_table, group_sweep_specs, openloop_ladder, pipeline_sweep_specs, read_scaling,
    readmostly_sweep, results_to_json, route_compare_specs, OpenLoopSweepConfig,
    ReadMostlySweepConfig,
};
use std::fs::File;
use std::io::Write;
use std::process::exit;
use workload::{run_load, LoadResult, LoadSpec};

/// Every target the harness knows; anything else is refused before a run.
const TARGETS: &[&str] = &[
    "all",
    "fig4",
    "fig4a",
    "fig4b",
    "fig5",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7",
    "fig8",
    "scaling",
    "routes",
    "ablation",
    "openloop",
    "readmostly",
    "chaos",
];

struct Options {
    targets: Vec<String>,
    quick: bool,
    /// The `--json` destination, created before anything runs.
    json: Option<(String, File)>,
}

/// Print `problem` and the usage, and exit with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("experiments: {problem}");
    eprintln!("usage: experiments [TARGET...] [--quick] [--json PATH]");
    eprintln!("targets: {}", TARGETS.join(" "));
    exit(2)
}

fn parse_args() -> Options {
    let mut targets = Vec::new();
    let mut quick = false;
    let mut json = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => {
                let Some(path) = args.next() else {
                    usage_error("--json needs a path");
                };
                match File::create(&path) {
                    Ok(file) => json = Some((path, file)),
                    Err(e) => usage_error(&format!("cannot create --json output {path}: {e}")),
                }
            }
            other if TARGETS.contains(&other) => targets.push(other.to_string()),
            other => usage_error(&format!("unknown target {other:?}")),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    Options {
        targets,
        quick,
        json,
    }
}

fn run_batch(name: &str, specs: Vec<LoadSpec>) -> Vec<LoadResult> {
    eprintln!("== running {name}: {} experiments ==", specs.len());
    specs
        .iter()
        .map(|spec| {
            eprintln!(
                "   running {} ({} transactions)...",
                spec.name,
                spec.total_transactions().unwrap_or(0)
            );
            run_load(spec)
        })
        .collect()
}

/// Re-submissions per committed transaction (the overhead the fault
/// schedule extracted from the retry machinery).
fn resubmission_rate(result: &LoadResult) -> f64 {
    result.totals.resubmissions as f64 / result.totals.committed.max(1) as f64
}

fn main() {
    let opts = parse_args();
    let mut all_results: Vec<LoadResult> = Vec::new();
    let wants = |name: &str| {
        opts.targets.iter().any(|t| t == name)
            || opts.targets.iter().any(|t| t == "all")
            || (name.starts_with("fig4") && opts.targets.iter().any(|t| t == "fig4"))
            || (name.starts_with("fig5") && opts.targets.iter().any(|t| t == "fig5"))
    };

    if wants("fig4a") || wants("fig4b") {
        let results = run_batch("figure 4", fig4_specs(opts.quick));
        println!("\n=== Figure 4(a): successful commits vs. number of replicas ===");
        println!("{}", format_commit_table(&results));
        println!("=== Figure 4(b): commit latency vs. number of replicas ===");
        println!("{}", format_latency_table(&results));
        all_results.extend(results);
    }
    if wants("fig5a") || wants("fig5b") {
        let results = run_batch("figure 5", fig5_specs(opts.quick));
        println!("\n=== Figure 5(a): successful commits per datacenter combination ===");
        println!("{}", format_commit_table(&results));
        println!("=== Figure 5(b): transaction latency per datacenter combination ===");
        println!("{}", format_latency_table(&results));
        all_results.extend(results);
    }
    if wants("fig6") {
        let results = run_batch("figure 6", fig6_specs(opts.quick));
        println!("\n=== Figure 6: varying total number of attributes (data contention), VVV ===");
        println!("{}", format_commit_table(&results));
        all_results.extend(results);
    }
    if wants("fig7") {
        let results = run_batch("figure 7", fig7_specs(opts.quick));
        println!("\n=== Figure 7: impact of increasing concurrency (offered load), VVV ===");
        println!("{}", format_commit_table(&results));
        all_results.extend(results);
    }
    if wants("fig8") {
        let results = run_batch("figure 8", fig8_specs(opts.quick));
        println!(
            "\n=== Figure 8: per-datacenter concurrency, VOC, one workload per datacenter ==="
        );
        println!("{}", format_commit_table(&results));
        println!("{}", format_per_replica_table(&results));
        println!("{}", format_latency_table(&results));
        all_results.extend(results);
    }
    if wants("scaling") {
        let results = run_batch("group sweep", group_sweep_specs(opts.quick));
        println!("\n=== Scaling: group-count sweep (64 writers, batch 4, VVV) ===");
        println!("{}", format_scaling_table(&results));
        all_results.extend(results);
        let results = run_batch("batch sweep", batch_sweep_specs(opts.quick));
        println!("=== Scaling: batch-size sweep (16 writers, 4 groups, VVV) ===");
        println!("{}", format_scaling_table(&results));
        all_results.extend(results);
        let results = run_batch("pipeline sweep", pipeline_sweep_specs(opts.quick));
        println!(
            "=== Pipeline: depth 1/2/4 x batch cap 1/4/8, equal offered load (burst, VVV) ==="
        );
        println!("{}", format_pipeline_table(&results));
        all_results.extend(results);
    }
    if wants("routes") {
        let results = run_batch("routes", route_compare_specs(8, opts.quick));
        println!(
            "\n=== Commit routes: direct (client proposer) vs submitted (service-hosted \
             committer), contended workload, 8 writers, VVV ==="
        );
        println!("{}", format_route_table(&results));
        let (direct, submitted) = (&results[0], &results[1]);
        eprintln!(
            "submitted/direct committed-tx/s ratio: {:.2}",
            submitted.committed_tps() / direct.committed_tps().max(f64::EPSILON)
        );
        all_results.extend(results);
    }
    if wants("ablation") {
        let results = run_batch("ablation", ablation_specs(opts.quick));
        println!("\n=== Ablation: Paxos-CP mechanisms in isolation (VVV, paper workload) ===");
        println!("{}", format_commit_table(&results));
        println!("{}", format_latency_table(&results));
        all_results.extend(results);
    }

    // Open-loop runs in wall-clock time on real threads, so it is opted
    // into explicitly rather than folded into `all`.
    if opts.targets.iter().any(|t| t == "openloop") {
        let config = if opts.quick {
            OpenLoopSweepConfig::quick()
        } else {
            OpenLoopSweepConfig::full()
        };
        let mut ladders: Vec<(usize, Vec<LoadResult>)> = Vec::new();
        for &workers in &config.worker_counts {
            let sample = config.point(workers, 1.0, 0);
            eprintln!(
                "== open loop: {workers} worker(s), {} groups, {:?} keys ==",
                sample.keyspace.groups, sample.keyspace.distribution
            );
            let results = openloop_ladder(&config, workers);
            println!(
                "\n=== Open loop: latency vs offered load, {workers} worker(s) ({} groups, {:?} keys on {}) ===",
                sample.keyspace.groups,
                sample.keyspace.distribution,
                sample.topology.name(),
            );
            println!("{}", format_openloop_table(&results));
            ladders.push((workers, results));
        }
        println!("=== Open loop summary (weak scaling: constant groups per worker) ===");
        println!("{}", format_openloop_summary(&ladders));
        let points: usize = ladders.iter().map(|(_, r)| r.len()).sum();
        let commits: usize = ladders
            .iter()
            .flat_map(|(_, r)| r.iter().map(|p| p.totals.committed))
            .sum();
        eprintln!(
            "verified {points} open-loop points / {commits} committed transactions \
             (every point checker-verified)"
        );
    }

    // Read-mostly scale-out sweep: like `openloop` it runs in wall-clock
    // time on real threads, so it is opted into explicitly.
    if opts.targets.iter().any(|t| t == "readmostly") {
        let config = if opts.quick {
            ReadMostlySweepConfig::quick()
        } else {
            ReadMostlySweepConfig::full()
        };
        let sample = config.point(1, 0);
        eprintln!(
            "== read-mostly: serving {:?} of {} replicas, {} tx/s offered at {:.0}/{:.0} read/write, {} ==",
            config.serving_counts,
            sample.topology.num_datacenters(),
            config.offered_tps,
            sample.mix.snapshot_fraction * 100.0,
            (1.0 - sample.mix.snapshot_fraction) * 100.0,
            sample.topology.name(),
        );
        let results = readmostly_sweep(&config);
        println!(
            "\n=== Read-mostly: snapshot-read throughput vs serving replicas ({} workers, {}) ===",
            config.workers,
            sample.topology.name(),
        );
        println!("{}", format_readmostly_table(&results));
        let reads: usize = results.iter().map(|r| r.reads.completed).sum();
        let verified: usize = results.iter().map(|r| r.reads.verified).sum();
        let unavailable: usize = results.iter().map(|r| r.reads.unavailable).sum();
        if let Some(ratio) = read_scaling(&results) {
            let serving = |r: Option<&LoadResult>| r.map_or(0, |r| r.spec.mix.serving_replicas);
            let (first, last) = (serving(results.first()), serving(results.last()));
            println!(
                "read scaling: {last} serving replicas carry {ratio:.2}x the read throughput of \
                 {first}"
            );
            assert!(
                opts.quick || ratio >= 2.0,
                "scale-out read plane must carry >= 2x read throughput at {last} vs {first} \
                 serving replicas (measured {ratio:.2}x)"
            );
        }
        eprintln!(
            "verified {} read-mostly points / {reads} snapshot reads: every point \
             checker-verified, {verified} reads proven at their watermark, {unavailable} \
             unavailable (non-aborting read plane)",
            results.len()
        );
    }

    // The chaos scenario runs in simulated time but is a fault-tolerance
    // harness rather than a paper figure, so — like `openloop` — it is
    // opted into explicitly rather than folded into `all`.
    if opts.targets.iter().any(|t| t == "chaos") {
        let load = if opts.quick {
            simnet::SimDuration::from_secs(8)
        } else {
            simnet::SimDuration::from_secs(60)
        };
        let spec = LoadSpec::rolling_failure(load);
        eprintln!(
            "== chaos: rolling failures over {}s of virtual time, {} drivers, {} tx/s offered ==",
            load.as_micros() / 1_000_000,
            spec.num_actors(),
            spec.offered_tps()
        );
        let result = run_load(&spec);
        println!("\n=== Chaos: rolling leader crashes + flapping partition + home churn (VVV) ===");
        let totals = &result.totals;
        println!(
            "attempted {}  committed {}  aborted {}  unavailable {}",
            totals.attempted, totals.committed, totals.aborted, result.unavailable
        );
        println!(
            "faults injected {}  resubmissions {}  duplicate suppressions {}",
            totals.faults_injected, totals.resubmissions, totals.duplicate_suppressions
        );
        println!(
            "liveness: min {} commits per {}ms window ({} windows, all > 0)",
            result.min_window_commits(),
            spec.liveness_window.map_or(0, |w| w.as_micros() / 1_000),
            result.window_commits.len()
        );
        println!(
            "availability dip p99: {:.1} ms  resubmission rate: {:.3} per commit",
            result.totals.commit_latency().p99_ms,
            resubmission_rate(&result)
        );
        eprintln!(
            "verified chaos run: serializable, exactly-once, zero unavailable = {}",
            result.unavailable == 0
        );
    }

    if let Some((path, mut file)) = opts.json {
        if let Err(e) = file.write_all(results_to_json(&all_results).as_bytes()) {
            eprintln!("experiments: writing {path}: {e}");
            exit(1);
        }
        eprintln!("wrote {} results to {path}", all_results.len());
    }

    // Every experiment verified serializability before returning; summarize.
    let combined: usize = all_results.iter().map(|r| r.totals.combined_commits).sum();
    let total_txns: usize = all_results.iter().map(|r| r.totals.attempted).sum();
    eprintln!(
        "\nverified {} experiments / {} transactions (one-copy serializability + replica agreement); {} combined commits",
        all_results.len(),
        total_txns,
        combined
    );
}
