//! Run one workload in this process: repeat it until the time budget is
//! used, gate every repetition on correctness, and reduce the repetitions to
//! the named metrics.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procfs;
use crate::sut::{self, Counters, LayerTimes, Rep, Runtime};
use crate::tally::{
    max_group_gap_us, median, quantile_sorted, quiet_quartile, supported_tail, Tally,
};
use crate::trace::Tracer;
use crate::workloads;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    /// Wall seconds the repetitions may use; a repetition that has started
    /// always finishes, so every run does whole, equal units of work.
    pub seconds: f64,
    /// Report the per-layer metrics (alternating traced and untraced
    /// repetitions, then the layer replay) instead of the end-to-end ones.
    pub trace: bool,
    /// Size divisor: 1 = frozen sizes, 10 = `--quick`, 20 = self-tests.
    pub shrink: usize,
    /// The benchmark's `out/` directory: scratch storage and trace files.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    /// Operations offered and failed, summed over the repetitions.
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-repetition values of the metrics that vary between repetitions,
    /// for `compare`'s spread.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Human-readable remarks (the percentile behind `commit_p99_ms`, the
    /// sample counts, the repetition count).
    pub notes: Vec<String>,
    pub repetitions: usize,
}

/// What is kept of one repetition once its raw observations are reduced.
struct Summary {
    traced: bool,
    commits_per_cpu_s: f64,
    ops_per_cpu_s: f64,
    commits_per_wall_s: f64,
    ops_per_wall_s: f64,
    reads_per_wall_s: f64,
    cpu_share: f64,
    commit_p50_ms: f64,
    commit_p99_ms: f64,
    tail_percentile: f64,
    commit_samples: usize,
    commit_ratio: f64,
    max_outage_ms: f64,
    run_s: f64,
    written_bytes: u64,
    /// Everything that must repeat exactly on the simulated runtime.
    fingerprint: (Counters, [u64; 6]),
}

fn summarize(rep: &Rep, traced: bool, written_bytes: u64) -> Summary {
    let t = &rep.tally;
    let mut latencies = t.commit_latency_us.clone();
    latencies.sort_unstable();
    let (tail_percentile, tail_us) = supported_tail(&latencies);
    Summary {
        traced,
        commits_per_cpu_s: t.committed as f64 / rep.cpu_s,
        ops_per_cpu_s: (t.reads_done + t.writes_done) as f64 / rep.cpu_s,
        cpu_share: rep.cpu_s / rep.run_s,
        commits_per_wall_s: t.committed as f64 / rep.run_s,
        ops_per_wall_s: (t.reads_done + t.writes_done) as f64 / rep.run_s,
        reads_per_wall_s: t.read_latency_us.len() as f64 / rep.run_s,
        commit_p50_ms: quantile_sorted(&latencies, 0.5) as f64 / 1e3,
        commit_p99_ms: tail_us as f64 / 1e3,
        tail_percentile,
        commit_samples: latencies.len(),
        commit_ratio: t.committed as f64 / t.rw_attempted.max(1) as f64,
        max_outage_ms: max_group_gap_us(&t.commit_at) as f64 / 1e3,
        run_s: rep.run_s,
        written_bytes,
        fingerprint: (
            rep.counters.clone(),
            [
                t.committed,
                t.aborted,
                t.failed,
                t.reads_done,
                latencies.iter().sum(),
                t.commit_at.iter().map(|(_, at)| *at).max().unwrap_or(0),
            ],
        ),
    }
}

pub fn run_workload(opts: &RunOptions) -> Result<Outcome, String> {
    let name = opts.workload.as_str();
    let simulated = workloads::spec(name, opts.shrink)
        .ok_or_else(|| format!("unknown workload '{name}'"))?
        .runtime
        == Runtime::Simnet;
    // Repetition `i` draws its inputs from a seed of its own, so a run
    // averages over several input sets; metrics on the simulated clock are
    // reduced over a fixed prefix of repetitions (always run, whatever the
    // host's speed), which keeps them a pure function of `--seed`.
    let rep_seed = |rep: usize| crate::inputs::Rng::new(opts.seed, 1_000 + rep as u64).next_u64();
    let full_size = opts.shrink == 1;
    let fixed_reps = if full_size {
        workloads::fixed_repetitions(name)
    } else {
        1
    };
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let started = Instant::now();

    // Set-up is cheap next to a repetition, so it is sampled many more
    // times than the workload runs.
    let mut setup_s: Vec<f64> = Vec::new();
    let set_up = |seed: u64, traced: bool, setup_s: &mut Vec<f64>| {
        let began = Instant::now();
        let spec = workloads::spec(name, opts.shrink).expect("checked above");
        let prepared = sut::prepare(&spec, seed, &opts.out_dir, traced);
        setup_s.push(began.elapsed().as_secs_f64());
        (spec, prepared)
    };
    // A batch of throwaway set-ups runs before every repetition: at least 5
    // (2 at reduced sizes), then as many as fit in 0.1 s, up to 20. Spreading
    // the batches over the run averages over the moods of the sandbox's disk,
    // which the durable workloads' directory and file creation depends on.
    let sample_setups = |setup_s: &mut Vec<f64>| {
        let (sampling, before) = (Instant::now(), setup_s.len());
        let floor = if full_size { 5 } else { 2 };
        while setup_s.len() - before < floor
            || (full_size && setup_s.len() - before < 20 && sampling.elapsed().as_secs_f64() < 0.1)
        {
            drop(set_up(opts.seed, false, setup_s));
        }
    };

    // The paper's headline as a gate, once per run, outside every timed phase.
    let mut notes = Vec::new();
    if name == "contended-direct" {
        let spec = workloads::spec(name, opts.shrink).expect("checked above");
        let (cp, basic) = sut::cp_beats_basic(&spec, opts.seed)?;
        notes.push(format!(
            "contended prefix: Paxos-CP committed {cp}, basic Paxos {basic}"
        ));
    }

    let mut tracer = Tracer::new(false);
    let budget = opts.seconds * if opts.trace { 0.6 } else { 1.0 };
    // A traced run pairs every untraced repetition with a traced one on the
    // same inputs; its counts come from the first pair alone.
    let min_reps = if opts.trace { 2 } else { fixed_reps };
    let mut summaries: Vec<Summary> = Vec::new();
    let mut first_traced: Option<Rep> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut verify_s = Vec::new();
    loop {
        // Untraced first, then alternate, so tracing overhead is a paired
        // comparison within one process.
        let traced = opts.trace && summaries.len() % 2 == 1;
        sample_setups(&mut setup_s);
        tracer.set_enabled(traced);
        tracer.enter("workload");
        tracer.enter("setup");
        let input_set = if opts.trace {
            summaries.len() / 2
        } else {
            summaries.len()
        };
        let (spec, prepared) = set_up(rep_seed(input_set), traced, &mut setup_s);
        tracer.exit();
        let written_before = procfs::field("io", "write_bytes");
        let rep = prepared.run(&mut tracer)?;
        let written = procfs::field("io", "write_bytes") - written_before;
        tracer.exit();

        attempted += rep.tally.attempted;
        failed += rep.tally.failed;
        verify_s.push(rep.verify_s);
        if spec.rolling_faults && rep.tally.failed > 0 {
            return Err(format!(
                "{} operations surfaced Unavailable under the fault schedule",
                rep.tally.failed
            ));
        }
        if rep.counters.leaked_leases > 0 {
            return Err(format!("{} read leases leaked", rep.counters.leaked_leases));
        }
        let summary = summarize(&rep, traced, written);
        // A traced repetition replays its untraced twin's inputs: on the
        // deterministic runtime the two must agree to the last count.
        if simulated && traced {
            let twin = summaries
                .last()
                .expect("an untraced repetition precedes every traced one");
            if twin.fingerprint != summary.fingerprint {
                return Err(format!(
                    "same seed, different run on the deterministic runtime:\n{:?}\nvs\n{:?}",
                    twin.fingerprint, summary.fingerprint
                ));
            }
        }
        summaries.push(summary);
        if traced && first_traced.is_none() {
            first_traced = Some(rep);
        }
        let rep_wall: Vec<f64> = summaries.iter().map(|s| s.run_s).collect();
        let elapsed = started.elapsed().as_secs_f64();
        if summaries.len() >= min_reps && elapsed + 0.5 * median(&rep_wall) >= budget {
            break;
        }
    }
    notes.push(format!(
        "{} repetitions, {} set-ups",
        summaries.len(),
        setup_s.len()
    ));

    let untraced: Vec<&Summary> = summaries.iter().filter(|s| !s.traced).collect();
    let over = |pick: fn(&Summary) -> f64, set: &[&Summary]| -> Vec<f64> {
        set.iter().map(|s| pick(s)).collect()
    };
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();

    if !opts.trace {
        let first = untraced[0];
        notes.push(format!(
            "commit_p99_ms is p{} over {} commits per repetition",
            first.tail_percentile, first.commit_samples
        ));
        samples.insert("setup_s", setup_s.clone());
        samples.insert(
            "commits_per_cpu_s",
            over(|s| s.commits_per_cpu_s, &untraced),
        );
        samples.insert("ops_per_cpu_s", over(|s| s.ops_per_cpu_s, &untraced));
        let on_sim_clock = if simulated {
            &untraced[..fixed_reps]
        } else {
            &untraced[..]
        };
        samples.insert("commit_p50_ms", over(|s| s.commit_p50_ms, on_sim_clock));
        samples.insert("commit_p99_ms", over(|s| s.commit_p99_ms, on_sim_clock));
        samples.insert("commit_ratio", over(|s| s.commit_ratio, on_sim_clock));
        let peak_rss_mb = procfs::field("status", "VmHWM") as f64 / 1024.0;
        for def in END_TO_END {
            let value = match def.name {
                "peak_rss_mb" => peak_rss_mb,
                // Simulated time and counts repeat exactly for a seed; what
                // varies is the input set, so take the middle one.
                "commit_p50_ms" | "commit_p99_ms" | "commit_ratio" if simulated => {
                    median(&samples[def.name])
                }
                // The host's clocks carry the host's noise, which only ever
                // slows a repetition down.
                other => quiet_quartile(&samples[other], def.better),
            };
            metrics.push((def.name, value, def.unit));
        }
    } else {
        let rep = first_traced.expect("a traced run has at least one traced repetition");
        let traced: Vec<&Summary> = summaries.iter().filter(|s| s.traced).collect();
        tracer.set_enabled(true);
        tracer.enter("replay");
        let layers = sut::replay_layers(&rep.artefacts, &opts.out_dir, &mut tracer);
        tracer.exit();
        let null_events_per_s =
            sut::null_sim_events_per_s(if full_size { 400_000 } else { 20_000 });
        let par_null_msgs_per_s =
            sut::null_parallel_msgs_per_s(Duration::from_millis(if full_size { 400 } else { 50 }));
        let untraced_cps = median(&over(|s| s.commits_per_cpu_s, &untraced));
        let traced_cps = median(&over(|s| s.commits_per_cpu_s, &traced));
        let untraced_run_s = median(&over(|s| s.run_s, &untraced));
        let values = layer_values(
            &rep,
            traced[0],
            &layers,
            median(&verify_s),
            untraced_run_s,
            1.0 - traced_cps / untraced_cps,
            null_events_per_s,
            par_null_msgs_per_s,
            tracer.spans().len(),
        );
        for def in PER_LAYER {
            let value = *values
                .get(def.name)
                .unwrap_or_else(|| panic!("no value computed for {}", def.name));
            metrics.push((def.name, value, def.unit));
        }
        let path = opts.out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, tracer.to_json(name))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        notes.push(format!("trace written to {}", path.display()));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        samples,
        notes,
        repetitions: summaries.len(),
    })
}

/// Wall µs per commit over the first and the last quarter of the commits,
/// from the load actors' wall-clock stamps.
fn quarter_costs(tally: &Tally) -> (f64, f64) {
    let mut at = tally.commit_wall_ns.clone();
    at.sort_unstable();
    let quarter = at.len() / 4;
    if quarter < 2 {
        return (0.0, 0.0);
    }
    let per_commit =
        |slice: &[u64]| (slice[slice.len() - 1] - slice[0]) as f64 / 1e3 / (slice.len() - 1) as f64;
    (
        per_commit(&at[..quarter]),
        per_commit(&at[at.len() - quarter..]),
    )
}

#[allow(clippy::too_many_arguments)]
fn layer_values(
    rep: &Rep,
    summary: &Summary,
    layers: &LayerTimes,
    verify_s: f64,
    untraced_run_s: f64,
    overhead_share: f64,
    null_events_per_s: f64,
    par_null_msgs_per_s: f64,
    spans: usize,
) -> BTreeMap<&'static str, f64> {
    let (t, c) = (&rep.tally, &rep.counters);
    let commits = t.committed.max(1) as f64;
    let per_commit = |n: u64| n as f64 / commits;
    let (q1, q4) = quarter_costs(t);
    let txns_per_instance = c.logged_txns as f64 / c.logged_instances.max(1) as f64;
    let promoted: u64 = t.commits_by_promotion.iter().skip(1).sum();
    let mut log_us: Vec<u64> = layers
        .storage_log_us
        .iter()
        .map(|us| (*us * 1e3) as u64)
        .collect();
    log_us.sort_unstable();
    let mut restart_us: Vec<u64> = rep.restart_ms.iter().map(|ms| (*ms * 1e3) as u64).collect();
    restart_us.sort_unstable();
    let mut read_us = t.read_latency_us.clone();
    read_us.sort_unstable();
    let snapshot_reads = t.read_latency_us.len().max(1) as f64;

    // What the replayed layers account for: per-call time × the calls this
    // run made (three acceptors per instance, three replicas per write).
    let instances = commits / txns_per_instance.max(1.0);
    let replicas = 3.0;
    let log_p50_us = quantile_sorted(&log_us, 0.5) as f64 / 1e3;
    let accounted_s = c.syncs as f64 * log_p50_us / 1e6
        + rep.restart_ms.iter().sum::<f64>() / 1e3
        + c.snapshots_written as f64 * layers.snapshot_save_ms / 1e3
        + instances * replicas * layers.acceptor_cycle_ns / 1e9
        + instances * layers.partition_ns_per_window / 1e9
        + layers.conflict_checks_in_run as f64 * layers.conflict_check_ns / 1e9
        + t.writes_done as f64 * replicas * layers.apply_ns_per_write / 1e9
        + t.reads_done as f64 * layers.read_at_ns / 1e9;

    BTreeMap::from([
        ("simnet.events_per_commit", per_commit(c.events)),
        ("simnet.msgs_per_commit", per_commit(c.msgs_sent)),
        (
            "simnet.wall_us_per_event",
            summary.run_s * 1e6 / c.events.max(1) as f64,
        ),
        ("simnet.null_events_per_s", null_events_per_s),
        ("simnet.par_null_msgs_per_s", par_null_msgs_per_s),
        ("simnet.par_backpressure", c.backpressure as f64),
        ("cluster.commits_per_wall_s", summary.commits_per_wall_s),
        ("cluster.ops_per_wall_s", summary.ops_per_wall_s),
        ("cluster.cpu_share", summary.cpu_share),
        ("cluster.wall_us_per_commit_q1", q1),
        ("cluster.wall_us_per_commit_q4", q4),
        (
            "cluster.verify_ms_per_1k_txn",
            verify_s * 1e3 / (t.attempted.max(1) as f64 / 1e3),
        ),
        ("batch.window_occupancy", c.window_occupancy_mean),
        ("batch.txns_per_instance", txns_per_instance),
        ("batch.max_pipeline_depth", c.max_pipeline_depth as f64),
        ("batch.splits_per_1k", per_commit(c.batch_splits) * 1e3),
        (
            "batch.stale_aborts_per_1k",
            per_commit(c.stale_member_aborts) * 1e3,
        ),
        ("session.resubmits_per_commit", per_commit(t.resubmissions)),
        (
            "service.dup_suppressions_per_commit",
            per_commit(c.duplicate_suppressions),
        ),
        ("service.expired_reads", c.expired_reads as f64),
        ("paxos.promoted_share", per_commit(promoted)),
        ("paxos.combined_share", per_commit(t.combined)),
        (
            "paxos.max_promotion_round",
            t.commits_by_promotion
                .iter()
                .rposition(|n| *n > 0)
                .unwrap_or(0) as f64,
        ),
        ("paxos.acceptor_cycle_ns", layers.acceptor_cycle_ns),
        ("walog.conflict_check_ns", layers.conflict_check_ns),
        ("walog.encode_ns_per_entry", layers.encode_ns_per_entry),
        ("walog.decode_ns_per_entry", layers.decode_ns_per_entry),
        ("walog.entry_bytes_p50", layers.entry_bytes_p50),
        (
            "walog.partition_ns_per_window",
            layers.partition_ns_per_window,
        ),
        ("mvkv.apply_ns_per_write", layers.apply_ns_per_write),
        ("mvkv.read_at_ns", layers.read_at_ns),
        (
            "mvkv.reclaimed_per_commit",
            per_commit(c.reclaimed_versions),
        ),
        ("storage.fsyncs_per_commit", per_commit(c.syncs)),
        (
            "storage.records_per_fsync",
            c.records_synced as f64 / c.syncs.max(1) as f64,
        ),
        ("storage.sync_failures", c.sync_failures as f64),
        (
            "storage.snapshots_per_1k_commits",
            per_commit(c.snapshots_written) * 1e3,
        ),
        ("storage.segments_on_disk_end", c.segments_on_disk as f64),
        (
            "storage.disk_bytes_end_per_commit",
            per_commit(c.disk_bytes_end),
        ),
        (
            "storage.written_bytes_per_commit",
            per_commit(summary.written_bytes),
        ),
        ("storage.log_us_p50", log_p50_us),
        ("storage.log_us_p99", supported_tail(&log_us).1 as f64 / 1e3),
        (
            "storage.batch8_us_per_record",
            layers.storage_batch8_us_per_record,
        ),
        (
            "storage.replay_ms_per_1k_records",
            layers.storage_replay_ms_per_1k,
        ),
        ("storage.snapshot_save_ms", layers.snapshot_save_ms),
        ("storage.snapshot_load_ms", layers.snapshot_load_ms),
        (
            "storage.restart_ms_p50",
            quantile_sorted(&restart_us, 0.5) as f64 / 1e3,
        ),
        (
            "storage.restart_ms_max",
            restart_us.last().copied().unwrap_or(0) as f64 / 1e3,
        ),
        ("storage.restarts", c.restarts as f64),
        ("avail.max_outage_ms", summary.max_outage_ms),
        ("avail.faults_injected", c.faults_injected as f64),
        ("load.max_late_ms", t.max_late_us as f64 / 1e3),
        ("par.reads_per_wall_s", summary.reads_per_wall_s),
        (
            "par.read_p50_ms",
            quantile_sorted(&read_us, 0.5) as f64 / 1e3,
        ),
        ("par.read_p99_ms", supported_tail(&read_us).1 as f64 / 1e3),
        (
            "par.staleness_mean",
            t.staleness_sum as f64 / snapshot_reads,
        ),
        ("par.staleness_max", t.staleness_max as f64),
        ("trace.accounted_share", accounted_s / untraced_run_s),
        ("trace.overhead_share", overhead_share),
        ("trace.spans", spans as f64),
    ])
}
