//! The metric registry: every name the benchmark prints, with its unit,
//! direction, clock, layer and — written down before measuring — which
//! end-to-end metric it should move on which workload. `BENCHMARK.json` is
//! generated from this table (`benchmark manifest`) and a self-test keeps the
//! two equal.
//!
//! Clocks: *sim* is simulated time under the injected WAN model (VVV: 1.5 ms
//! RTT), deterministic per seed, and moves only when the protocol changes;
//! *wall* is real time of this process and moves when the implementation
//! gets cheaper; *cpu* is processor time this process used (user + system,
//! all threads), which equals wall time where the single-threaded simulation
//! never waits and leaves out the wait for the sandbox's virtual disk where
//! it does; *count* is a tally that repeats exactly on the simulated
//! runtime; *process* is read from the operating system and repeats only
//! roughly. On the simulated workloads wall time is processor cost, because
//! the simulation runs single-threaded as fast as the processor allows. On
//! `readmostly-par` every time is wall.

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub clock: &'static str,
    pub what: &'static str,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: &'static str,
    pub what: &'static str,
    /// Which end-to-end metric this should move, on which workload, and
    /// where the prediction is no change.
    pub moves: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        clock: "wall",
        what: "generating the inputs and building the cluster up to the first operation offered (key tables, every actor's transaction plan, interning, initial data, scratch directory, storage open); quiet (lower) quartile over every set-up of the run",
    },
    EndToEnd {
        name: "commits_per_cpu_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        clock: "cpu",
        what: "committed transactions per processor second (user + system, all threads) of the load and drain phases; quiet (upper) quartile over repetitions. Equals wall throughput on the in-memory simulated workloads; leaves out the wait for this sandbox's virtual disk on the durable ones",
    },
    EndToEnd {
        name: "ops_per_cpu_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        clock: "cpu",
        what: "client operations completed (reads, snapshot reads, and writes of committed transactions) per processor second; the read plane's cost on readmostly-par",
    },
    EndToEnd {
        name: "commit_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        clock: "sim (wall on readmostly-par)",
        what: "median time from submit (closed loop) or scheduled arrival (open loop) to the committed reply",
    },
    EndToEnd {
        name: "commit_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        clock: "sim (wall on readmostly-par)",
        what: "the same at the highest percentile (at most p99) with at least ten samples beyond it; on chaos-durable this is the availability dip",
    },
    EndToEnd {
        name: "commit_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.03,
        clock: "count",
        what: "committed / attempted read-write transactions, the paper's headline; conflict aborts, timeouts and Unavailable all count against it",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        clock: "process",
        what: "VmHWM of the workload's process",
    },
];

const STORAGE_MOVES: &str = "commits_per_cpu_s on sharded-durable and chaos-durable; no change on sharded-mem, contended-direct, readmostly-par";
const RECOVERY_MOVES: &str =
    "commits_per_cpu_s and commit_p99_ms on chaos-durable; no change elsewhere";
const BATCH_MOVES: &str = "commit_p50_ms, commit_p99_ms, commits_per_cpu_s on sharded-mem and sharded-durable; no change on contended-direct (the direct route has no committer)";
const CONTENTION_MOVES: &str =
    "commit_ratio and commit_p99_ms on contended-direct; no change on sharded-* (no conflicts)";
const SIMNET_MOVES: &str =
    "commits_per_cpu_s on every simulated workload; no change on readmostly-par";
const GROWTH_MOVES: &str = "commits_per_cpu_s and peak_rss_mb on contended-direct and sharded-mem (untruncated logs); no change on sharded-durable (snapshots truncate)";
const READ_MOVES: &str = "ops_per_cpu_s on readmostly-par; no change on the simulated workloads";
const APPLY_MOVES: &str = "commits_per_cpu_s on sharded-mem";
const RETRY_MOVES: &str =
    "commit_p99_ms and avail.max_outage_ms on chaos-durable; must be 0 on fault-free workloads";
const NONE_MOVES: &str = "diagnostic; no end-to-end metric predicted";

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $clock:literal, $moves:expr, $what:literal) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            clock: $clock,
            what: $what,
            moves: $moves,
        }
    };
}

pub const PER_LAYER: &[PerLayer] = &[
    layer!("simnet.events_per_commit", "count", Lower, "count", SIMNET_MOVES, "runtime events (deliveries + timers) per committed transaction"),
    layer!("simnet.msgs_per_commit", "count", Lower, "count", SIMNET_MOVES, "messages sent per committed transaction"),
    layer!("simnet.wall_us_per_event", "us", Lower, "wall", SIMNET_MOVES, "run wall time divided by events processed"),
    layer!("simnet.null_events_per_s", "1/s", Higher, "wall", SIMNET_MOVES, "simulation kernel alone: two no-op actors echoing 64 tokens"),
    layer!("simnet.par_null_msgs_per_s", "1/s", Higher, "wall", READ_MOVES, "parallel runtime alone: the same two actors on two worker threads"),
    layer!("simnet.par_backpressure", "count", Lower, "count", READ_MOVES, "cross-worker sends that found the peer's channel full"),
    layer!("cluster.commits_per_wall_s", "1/s", Higher, "wall", NONE_MOVES, "committed transactions per wall second of the load and drain phases: what a client of this sandbox sees, disk wait included (ungated: the virtual disk's sync latency drifts by tens of per cent)"),
    layer!("cluster.ops_per_wall_s", "1/s", Higher, "wall", NONE_MOVES, "client operations per wall second"),
    layer!("cluster.cpu_share", "ratio", Higher, "cpu", STORAGE_MOVES, "processor seconds over wall seconds of the run: 1 when the simulation never waits, lower when it waits for the disk, up to the worker count on readmostly-par"),
    layer!("cluster.wall_us_per_commit_q1", "us", Lower, "wall", GROWTH_MOVES, "wall time per commit over the first quarter of commits"),
    layer!("cluster.wall_us_per_commit_q4", "us", Lower, "wall", GROWTH_MOVES, "the same over the last quarter: above q1 means cost grows with accumulated state"),
    layer!("cluster.verify_ms_per_1k_txn", "ms", Lower, "wall", NONE_MOVES, "replica-agreement and serializability check per 1000 attempted transactions"),
    layer!("batch.window_occupancy", "count", Higher, "count", BATCH_MOVES, "mean transactions per flushed commit window"),
    layer!("batch.txns_per_instance", "count", Higher, "count", BATCH_MOVES, "committed transactions per decided non-noop log entry"),
    layer!("batch.max_pipeline_depth", "count", Higher, "count", BATCH_MOVES, "deepest overlap of commit instances observed"),
    layer!("batch.splits_per_1k", "count", Lower, "count", BATCH_MOVES, "windows split as internally conflicting, per 1000 commits"),
    layer!("batch.stale_aborts_per_1k", "count", Lower, "count", BATCH_MOVES, "members aborted by flush-time revalidation, per 1000 commits"),
    layer!("session.resubmits_per_commit", "count", Lower, "count", RETRY_MOVES, "automatic session re-submissions per commit"),
    layer!("service.dup_suppressions_per_commit", "count", Lower, "count", RETRY_MOVES, "duplicate submissions the services absorbed per commit"),
    layer!("service.expired_reads", "count", Lower, "count", NONE_MOVES, "remote reads the services expired"),
    layer!("paxos.promoted_share", "ratio", Higher, "count", CONTENTION_MOVES, "share of commits that needed at least one Paxos-CP promotion"),
    layer!("paxos.combined_share", "ratio", Higher, "count", CONTENTION_MOVES, "share of commits that rode a multi-transaction entry"),
    layer!("paxos.max_promotion_round", "count", Lower, "count", CONTENTION_MOVES, "highest promotion round that produced a commit"),
    layer!("paxos.acceptor_cycle_ns", "ns", Lower, "wall", "commits_per_cpu_s on every workload", "replayed AcceptorStore prepare + accept + apply for one instance"),
    layer!("walog.conflict_check_ns", "ns", Lower, "wall", "commits_per_cpu_s on contended-direct", "replayed LogEntry::invalidates_reads_of per (entry, transaction) pair the run validated"),
    layer!("walog.encode_ns_per_entry", "ns", Lower, "wall", APPLY_MOVES, "replayed LogEntry::encode"),
    layer!("walog.decode_ns_per_entry", "ns", Lower, "wall", APPLY_MOVES, "replayed LogEntry::decode"),
    layer!("walog.entry_bytes_p50", "B", Lower, "count", STORAGE_MOVES, "median encoded size of a decided entry"),
    layer!("walog.partition_ns_per_window", "ns", Lower, "wall", BATCH_MOVES, "replayed combine::partition_compatible per decided window"),
    layer!("mvkv.apply_ns_per_write", "ns", Lower, "wall", APPLY_MOVES, "replayed MvKvStore::apply_idempotent per attribute written"),
    layer!("mvkv.read_at_ns", "ns", Lower, "wall", READ_MOVES, "replayed MvKvStore::read_attr_at"),
    layer!("mvkv.reclaimed_per_commit", "count", Higher, "count", GROWTH_MOVES, "store versions reclaimed by the lease-watermark GC per commit"),
    layer!("storage.fsyncs_per_commit", "count", Lower, "count", STORAGE_MOVES, "WAL syncs over all datacenters per committed transaction"),
    layer!("storage.records_per_fsync", "count", Higher, "count", STORAGE_MOVES, "WAL records made durable per sync (1 = no group commit)"),
    layer!("storage.sync_failures", "count", Lower, "count", STORAGE_MOVES, "syncs that failed"),
    layer!("storage.snapshots_per_1k_commits", "count", Lower, "count", STORAGE_MOVES, "group snapshots written per 1000 commits"),
    layer!("storage.segments_on_disk_end", "count", Lower, "count", STORAGE_MOVES, "WAL segments left on disk at run end, all datacenters"),
    layer!("storage.disk_bytes_end_per_commit", "B", Lower, "count", STORAGE_MOVES, "bytes under the storage directory at run end per commit"),
    layer!("storage.written_bytes_per_commit", "B", Lower, "process", STORAGE_MOVES, "bytes this process submitted to the block layer (/proc/self/io) per commit"),
    layer!("storage.log_us_p50", "us", Lower, "wall", STORAGE_MOVES, "replayed DcStorage::log, one record per sync: the shape the hot path produces"),
    layer!("storage.log_us_p99", "us", Lower, "wall", STORAGE_MOVES, "tail of the same"),
    layer!("storage.batch8_us_per_record", "us", Lower, "wall", STORAGE_MOVES, "replayed 8 x append + one sync: the shape group commit would produce"),
    layer!("storage.replay_ms_per_1k_records", "ms", Lower, "wall", RECOVERY_MOVES, "replayed wal::replay of the records just written"),
    layer!("storage.snapshot_save_ms", "ms", Lower, "wall", RECOVERY_MOVES, "replayed SnapshotStore::save of one group's state"),
    layer!("storage.snapshot_load_ms", "ms", Lower, "wall", RECOVERY_MOVES, "replayed SnapshotStore::load_all"),
    layer!("storage.restart_ms_p50", "ms", Lower, "wall", RECOVERY_MOVES, "wall time of each restart_datacenter_from_disk during the run"),
    layer!("storage.restart_ms_max", "ms", Lower, "wall", RECOVERY_MOVES, "slowest restart of the run"),
    layer!("storage.restarts", "count", Lower, "count", RECOVERY_MOVES, "restarts from disk the fault schedule caused"),
    layer!("avail.max_outage_ms", "ms", Lower, "sim (wall on readmostly-par)", RETRY_MOVES, "longest gap between consecutive commits of one group while load was offered"),
    layer!("avail.faults_injected", "count", Lower, "count", NONE_MOVES, "crashes, partitions and home moves the schedule injected"),
    layer!("load.max_late_ms", "ms", Lower, "sim (wall on readmostly-par)", NONE_MOVES, "how late the open-loop generator issued an arrival after it was due (its own site was down)"),
    layer!("par.reads_per_wall_s", "1/s", Higher, "wall", READ_MOVES, "completed snapshot reads per wall second"),
    layer!("par.read_p50_ms", "ms", Lower, "wall", READ_MOVES, "snapshot read latency, issue to reply"),
    layer!("par.read_p99_ms", "ms", Lower, "wall", READ_MOVES, "tail of the same (thread-noisy, so reported and not gated)"),
    layer!("par.staleness_mean", "count", Lower, "count", READ_MOVES, "mean log positions between the home's prefix and the serving watermark"),
    layer!("par.staleness_max", "count", Lower, "count", READ_MOVES, "worst of the same"),
    layer!("trace.accounted_share", "ratio", Higher, "wall", NONE_MOVES, "replayed layer time scaled by the run's own call counts, over the untraced run's wall time; the rest is service, committer and runtime glue"),
    layer!("trace.overhead_share", "ratio", Lower, "cpu", NONE_MOVES, "1 - traced / untraced commits_per_cpu_s, paired on the same inputs"),
    layer!("trace.spans", "count", Lower, "process", NONE_MOVES, "spans written to the trace file"),
];

/// The text of `BENCHMARK.json` for this registry.
pub fn manifest(run_seconds: u64) -> String {
    let workloads: Vec<String> = crate::workloads::WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The metric glossary as two markdown tables (pasted into `README.md`; a
/// self-test keeps every name present there).
pub fn glossary() -> String {
    let mut out = String::from("| end-to-end metric | unit | better | bound | clock | what it is |\n|---|---|---|---|---|---|\n");
    for m in END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {:.0} % | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.clock,
            m.what
        );
    }
    out += "\n| per-layer metric | unit | better | clock | what it is | should move |\n|---|---|---|---|---|---|\n";
    for m in PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.clock,
            m.what,
            m.moves
        );
    }
    out
}
