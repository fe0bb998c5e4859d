//! The five frozen workloads: what runs, at what size, and why.
//!
//! Every workload is sized by a fixed operation count, never by wall time,
//! so two commits measured with the same seed do identical work. A run
//! repeats the workload (fresh cluster, inputs from a seed derived from the
//! run's) until its time budget is used and reduces the repetitions to one
//! value per metric (`run.rs`).

use crate::inputs::{Arrival, Keys, LoadSpec, Mix};
use crate::sut::{Runtime, SutSpec};

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "contended-direct",
        why: "The paper's evaluation: 4 closed-loop clients contend for one 100-attribute row through their own Paxos-CP proposers; exercises paxos and walog conflict checks, bypasses core::batch and storage.",
    },
    Workload {
        name: "sharded-mem",
        why: "Loaded commit engine in memory: open-loop blind writes over 8 groups fill windows and overlap pipelines; exercises core::batch, core::service, simnet and mvkv, bypasses storage and conflicts.",
    },
    Workload {
        name: "sharded-durable",
        why: "Byte-identical inputs to sharded-mem with the WAL, snapshots and pager on the commit path, so a storage change must move this workload and leave its in-memory twin alone.",
    },
    Workload {
        name: "readmostly-par",
        why: "The second runtime and the read plane: 95% snapshot reads beside 5% commits on 2 worker threads, CPU-bound, so a write-path gain that costs readers or the parallel runtime shows.",
    },
    Workload {
        name: "chaos-durable",
        why: "Availability: rolling datacenter crashes with torn WAL tails, a flapping partition and home churn under scheduled low-rate load; the only workload exercising recovery, re-submission and dedup.",
    },
];

/// Repetitions every full-size run makes whatever the host's speed; the
/// simulated-clock metrics are medians over exactly these, so they depend on
/// `--seed` alone. The contended workload's p99 is the most seed-sensitive
/// number of the set, so it gets the most.
pub fn fixed_repetitions(name: &str) -> usize {
    match name {
        "contended-direct" => 6,
        _ => 4,
    }
}

/// Size divisor: 1 = the frozen sizes, 10 = `--quick`, 20 = the self-tests.
pub fn spec(name: &str, shrink: usize) -> Option<SutSpec> {
    let sized = |n: usize| (n / shrink).max(20);
    // Blind writes into 8 groups × 256 attributes, zipfian: ~0 aborts by
    // construction, so throughput is not confounded by conflicts. 3 000
    // transactions keep the durable twin's repetition near 3 s on this
    // sandbox's disk (14 000 syncs), so a run holds several and overshoots
    // its budget by little when the disk is slow.
    let sharded = |durable: bool| SutSpec {
        topology: "VVV",
        runtime: Runtime::Simnet,
        direct_route: false,
        durable,
        rolling_faults: false,
        rows: 1,
        load: LoadSpec {
            actors: 6,
            all_at_first: false,
            stagger_us: 0,
            txns_per_actor: sized(500),
            arrival: Arrival::Open {
                per_actor_per_s: 8_000.0 / 6.0,
            },
            mix: Mix {
                snapshot_share: 0.0,
                ops_per_txn: 2,
                read_share: 0.0,
                op_delay_us: 0,
            },
            groups: 8,
            keys: Keys::zipfian(256, 0.99),
        },
    };
    Some(match name {
        "contended-direct" => SutSpec {
            topology: "VVV",
            runtime: Runtime::Simnet,
            direct_route: true,
            durable: false,
            rolling_faults: false,
            rows: 1,
            load: LoadSpec {
                actors: 4,
                all_at_first: true,
                stagger_us: 250_000,
                txns_per_actor: sized(1_000),
                arrival: Arrival::Closed {
                    max_open: 1,
                    gap_us: 1_000_000,
                    gap_jitter: 0.3,
                },
                mix: Mix {
                    snapshot_share: 0.0,
                    ops_per_txn: 10,
                    read_share: 0.5,
                    op_delay_us: 18_000,
                },
                groups: 1,
                keys: Keys::uniform(100),
            },
        },
        "sharded-mem" => sharded(false),
        "sharded-durable" => sharded(true),
        "readmostly-par" => SutSpec {
            topology: "VOC",
            // rtt_scale 0.02 (90 ms → 1.8 ms) so the processor, not the
            // injected WAN delay, bounds throughput.
            runtime: Runtime::Parallel {
                workers: 2,
                rtt_scale: 0.02,
            },
            direct_route: false,
            durable: false,
            rolling_faults: false,
            rows: 1_024,
            load: LoadSpec {
                actors: 2,
                all_at_first: false,
                stagger_us: 0,
                // Short repetitions on purpose: the cost of an operation
                // grows with the logs, and past ~100 000 operations the two
                // workers run close enough to saturation that queueing
                // multiplies every hiccup of the host into the commit tail
                // (p99 spread of 24 % at 200 000 against 1 % here, measured
                // in alternation).
                txns_per_actor: sized(30_000),
                arrival: Arrival::Closed {
                    max_open: 64,
                    gap_us: 0,
                    gap_jitter: 0.0,
                },
                mix: Mix {
                    snapshot_share: 0.95,
                    ops_per_txn: 1,
                    read_share: 0.0,
                    op_delay_us: 0,
                },
                groups: 16,
                keys: Keys::zipfian(1_000_000, 0.99),
            },
        },
        "chaos-durable" => SutSpec {
            topology: "VVV",
            runtime: Runtime::Simnet,
            direct_route: false,
            durable: true,
            rolling_faults: true,
            rows: 1,
            load: LoadSpec {
                actors: 6,
                all_at_first: false,
                stagger_us: 0,
                txns_per_actor: sized(1_000),
                arrival: Arrival::Open {
                    per_actor_per_s: 200.0 / 6.0,
                },
                mix: Mix {
                    snapshot_share: 0.0,
                    ops_per_txn: 1,
                    read_share: 0.0,
                    op_delay_us: 0,
                },
                groups: 4,
                keys: Keys::zipfian(64, 0.99),
            },
        },
        _ => return None,
    })
}
