//! Rolling-failure chaos: the end-to-end availability story of §2.2 under
//! an adversarial schedule. Leaders crash and restart, an inter-site link
//! flaps, group homes migrate, and the per-message chaos policies duplicate
//! and reorder deliveries — while clients keep offering an open-loop load
//! and lean on the session's exactly-once automatic re-submission. Every
//! run must stay serializable, commit every client-observed transaction at
//! exactly one log position, and never let committed throughput flatline.

use mdstore::datacenter::SharedCore;
use mdstore::{
    Cluster, ClusterConfig, CommitProtocol, Msg, ParallelCluster, ParallelClusterConfig, Topology,
};
use proptest::prelude::*;
use simnet::{Actor, ChaosConfig, ChaosSchedule, ChaosSpec, Context, NodeId, SimDuration, SiteId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use walog::{GroupId, ItemRef, LogPosition, Transaction, TxnId};
use workload::{place, run_load, LoadSpec, Names};

/// The ISSUE's acceptance scenario: 60 s of simulated time under rolling
/// leader crashes (one roughly every two seconds with staggered restarts),
/// a flapping partition between the two non-primary sites and periodic
/// group-home migration, with a zipfian open-loop load offered throughout.
/// The run must complete with zero `Unavailable` outcomes surfaced to
/// clients, a checker-verified serializable history (asserted inside
/// [`run_load`]), and committed throughput above zero in every one-second
/// window.
#[test]
fn sixty_seconds_of_rolling_chaos_stays_serializable_available_and_live() {
    let result = run_load(&LoadSpec::rolling_failure(SimDuration::from_secs(60)));
    assert!(result.totals.committed > 0);
    assert_eq!(
        result.unavailable, 0,
        "automatic re-submission must absorb every fault window"
    );
    assert_eq!(result.window_commits.len(), 60);
    assert!(
        result.min_window_commits() > 0,
        "committed throughput flatlined: {:?}",
        result.window_commits
    );
    assert!(
        result.totals.faults_injected > 30,
        "the schedule must keep injecting"
    );
    assert!(
        result.totals.resubmissions > 0,
        "faults must exercise the retry path"
    );
    assert!(
        result.totals.duplicate_suppressions > 0,
        "retries must be answered from the dedup layers, not re-executed"
    );
}

/// The exactly-once sweep: the 60 s rolling-failure scenario at seeds
/// 1..=60, one verdict printed per seed — `ok`, `DuplicateCommit`,
/// `flatline` (a liveness window committed nothing) or `unavailable` (an
/// operation surfaced `Unavailable`). No seed may commit a transaction
/// twice, no seed may surface `Unavailable`, and no seed may fail any
/// other way. Duplicates were a ratchet that fell 25 → 14 → 3 → 1 seeds;
/// the last cause, a member already in an old home's in-flight slot when
/// its retry reached the new home, is gone since a new home settles every
/// position the old home could still have in flight before it proposes.
/// Sixty full runs: run it with
/// `cargo test --release --test chaos -- --ignored`.
#[test]
#[ignore = "sixty full chaos runs; run in release with --ignored"]
fn rolling_failure_seed_sweep() {
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let verdicts: Vec<(u64, String)> = (1..=60)
        .map(|seed| {
            let spec = LoadSpec::rolling_failure(SimDuration::from_secs(60)).with_seed(seed);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_load(&spec)));
            let verdict = match run {
                Ok(result) if result.unavailable > 0 => "unavailable".to_string(),
                Ok(_) => "ok".to_string(),
                Err(panic) => {
                    let text = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("a panic without a message");
                    // The checker's `Violation::DuplicateCommit`, or the
                    // harness's audit of a client-observed commit.
                    let twice = text.contains("times in the merged decided log")
                        && !text.contains("appears 0 times");
                    if text.contains("DuplicateCommit") || twice {
                        "DuplicateCommit".to_string()
                    } else if text.contains("flatlined") {
                        "flatline".to_string()
                    } else {
                        format!("failed: {text}")
                    }
                }
            };
            println!("seed {seed:>2}: {verdict}");
            (seed, verdict)
        })
        .collect();
    std::panic::set_hook(quiet);
    let seeds_with = |verdict: &str| -> Vec<u64> {
        let matching = verdicts.iter().filter(|(_, v)| v == verdict);
        matching.map(|(seed, _)| *seed).collect()
    };
    let duplicates = seeds_with("DuplicateCommit");
    println!(
        "{} ok, {} DuplicateCommit, {} flatline, {} unavailable",
        seeds_with("ok").len(),
        duplicates.len(),
        seeds_with("flatline").len(),
        seeds_with("unavailable").len()
    );
    let known = ["ok", "DuplicateCommit", "flatline", "unavailable"];
    let other: Vec<&(u64, String)> = verdicts
        .iter()
        .filter(|(_, v)| !known.contains(&v.as_str()))
        .collect();
    assert!(other.is_empty(), "seeds failed another way: {other:?}");
    assert!(
        seeds_with("unavailable").is_empty(),
        "automatic re-submission must absorb every fault window"
    );
    assert!(
        duplicates.is_empty(),
        "seeds commit a transaction twice: {duplicates:?}"
    );
}

/// Duplicated and reordered deliveries — `Msg::CommitRequest` retries and
/// `PaxosMsg` traffic alike — must never rewrite a decided log position.
/// A mid-run snapshot of the decided prefix is compared against the final
/// logs of every replica, and the whole history must still pass the
/// checker with every transaction reaching exactly one outcome.
#[test]
fn duplicated_and_reordered_deliveries_never_rewrite_the_decided_prefix() {
    let mut cluster =
        Cluster::build(ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp).with_seed(9));
    cluster.sim_mut().network_mut().config_mut().chaos = ChaosConfig::default()
        .with_duplicates(0.3)
        .with_reordering(0.25, SimDuration::from_millis(80))
        .with_bursts(0.1, 3.0);

    // Three closed-loop blind writers on one hot 16-attribute row, two
    // transactions open each.
    let mut spec = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
        .with_clients(3, 25)
        .with_keys(16)
        .with_target_tps(25.0)
        .with_max_open(2)
        .with_stagger(SimDuration::from_millis(5))
        .with_seed(900);
    spec.mix.ops_per_txn = 2;
    spec.mix.read_fraction = 0.0;
    spec.mix.op_delay = SimDuration::from_millis(1);
    let names = Arc::new(Names::intern(&cluster.symbols(), &spec.keyspace));
    let fleet = place(&mut cluster, &spec, &names);

    // Snapshot the decided prefix mid-run, while duplicates of already
    // counted accepts and applies are still arriving late.
    cluster.run_for(SimDuration::from_secs(2));
    let snapshot: BTreeMap<(GroupId, LogPosition), Vec<TxnId>> = {
        let core = cluster.core(0);
        let core = core.lock();
        core.logs()
            .flat_map(|(group, log)| {
                log.iter()
                    .map(move |(position, entry)| ((group, position), entry.txn_ids()))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    assert!(!snapshot.is_empty(), "something must have decided by 2 s");
    cluster.run_to_completion();

    let stats = cluster.sim().stats();
    assert!(
        stats.duplicated > 0,
        "chaos must have duplicated deliveries"
    );
    assert!(stats.reordered > 0, "chaos must have reordered deliveries");

    // The snapshotted prefix is immutable: every replica's final log holds
    // the identical entry at every snapshotted position.
    for replica in 0..cluster.num_datacenters() {
        let core = cluster.core(replica);
        let core = core.lock();
        for ((group, position), ids) in &snapshot {
            let entry = core
                .log(*group)
                .and_then(|log| log.get(*position))
                .unwrap_or_else(|| panic!("replica {replica} lost decided {position}"));
            assert_eq!(
                &entry.txn_ids(),
                ids,
                "replica {replica} rewrote decided position {position}"
            );
        }
    }

    let totals = fleet.totals();
    assert_eq!(totals.attempted, 75, "every transaction must be offered");
    assert_eq!(
        totals.committed + totals.aborted,
        75,
        "every transaction must reach exactly one outcome"
    );
    cluster
        .verify()
        .expect("duplicated/reordered runs must stay serializable");
}

/// Reserved retry-timer tag namespace: the tag carries the attempt id.
const RETRY_EVERY: SimDuration = SimDuration::from_millis(200);

/// A strictly serial blind writer that survives chaos: one transaction in
/// flight at a time, re-sent on a timer until its fate arrives (the
/// service-side `TxnId` dedup makes the retries exactly-once), re-sent
/// with a *fresh* id if the fate was an abort, and re-driven from
/// `on_recover` when the writer's own site crashes. Because each value
/// waits for the previous one's decision, the final store state is
/// causally fixed and comparable across runtimes and fault schedules.
struct ChaosSerialWriter {
    /// Writer index; values are `w{label}-s{seq}`, independent of node id.
    label: usize,
    group: GroupId,
    service: NodeId,
    /// The group home's datacenter core, for read positions.
    core: SharedCore,
    items: Vec<ItemRef>,
    quota: u64,
    /// Index of the value currently being committed (1-based).
    value_seq: u64,
    /// Unique id per submission attempt (fresh after an abort).
    txn_seq: u64,
    pending: Option<Transaction>,
    committed: Arc<AtomicUsize>,
    done: Arc<AtomicUsize>,
}

impl ChaosSerialWriter {
    fn submit_value(&mut self, ctx: &mut Context<Msg>) {
        if self.value_seq > self.quota {
            self.pending = None;
            self.done.fetch_add(1, Ordering::SeqCst);
            return;
        }
        let read_position = self.core.lock().read_position(self.group);
        self.txn_seq += 1;
        let item = self.items[(self.value_seq as usize - 1) % self.items.len()];
        let txn = Transaction::builder(
            TxnId::new(ctx.node().0, self.txn_seq),
            self.group,
            read_position,
        )
        .write(item, format!("w{}-s{}", self.label, self.value_seq))
        .build();
        self.pending = Some(txn);
        self.send_pending(ctx);
    }

    fn send_pending(&mut self, ctx: &mut Context<Msg>) {
        if let Some(txn) = &self.pending {
            ctx.send(
                self.service,
                Msg::CommitRequest {
                    req_id: self.txn_seq,
                    txn: txn.clone(),
                },
            );
            ctx.set_timer(RETRY_EVERY, self.txn_seq);
        }
    }
}

impl Actor<Msg> for ChaosSerialWriter {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.value_seq = 1;
        self.submit_value(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
        let Msg::CommitReply {
            req_id, committed, ..
        } = msg
        else {
            return;
        };
        if self.pending.is_none() || req_id != self.txn_seq {
            return; // stale reply to a superseded attempt
        }
        if committed {
            self.committed.fetch_add(1, Ordering::SeqCst);
            self.value_seq += 1;
        }
        // Committed: move on to the next value. Aborted: re-submit the same
        // value under a fresh id (the old id's abort fate is recorded).
        self.submit_value(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        if self.pending.is_some() && tag == self.txn_seq {
            self.send_pending(ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<Msg>) {
        // The crash suppressed the retry timer; re-drive the pending
        // attempt immediately (dedup absorbs any duplicate).
        self.send_pending(ctx);
    }
}

const WRITERS: usize = 4;
const GROUPS: usize = 2;
const QUOTA: u64 = 5;
const ATTRS: usize = 3;

fn writer_item_names(w: usize) -> Vec<(String, String)> {
    (0..ATTRS)
        .map(|a| (format!("row{w}"), format!("a{a}")))
        .collect()
}

/// Expected final value of writer `w`'s item `i`: the last seq in
/// `1..=QUOTA` that cycled onto it (serial submission fixes the order).
fn expected_final(w: usize, item: usize) -> Option<String> {
    let mut last = None;
    for s in 1..=QUOTA {
        if (s as usize - 1) % ATTRS == item {
            last = Some(format!("w{w}-s{s}"));
        }
    }
    last
}

type FinalState = BTreeMap<(String, String), Option<String>>;

/// The conflict-free serial-writer workload on the simnet, with rolling
/// site crashes injected throughout. Returns (final state, commits).
fn chaotic_simnet_run() -> (FinalState, usize) {
    let mut cluster =
        Cluster::build(ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp).with_seed(7));
    let symbols = cluster.symbols();
    let groups: Vec<GroupId> = (0..GROUPS)
        .map(|g| symbols.group(&format!("g{g}")))
        .collect();
    let committed = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicUsize::new(0));
    for w in 0..WRITERS {
        let group = groups[w % GROUPS];
        let home = cluster.directory().group_home(group);
        let items: Vec<ItemRef> = writer_item_names(w)
            .iter()
            .map(|(row, attr)| ItemRef::new(symbols.key(row), symbols.attr(attr)))
            .collect();
        let service = cluster.service_node(home);
        let core = cluster.core(home);
        let committed = Arc::clone(&committed);
        let done = Arc::clone(&done);
        cluster.add_client(home, move |_node| {
            Box::new(ChaosSerialWriter {
                label: w,
                group,
                service,
                core,
                items,
                quota: QUOTA,
                value_seq: 0,
                txn_seq: 0,
                pending: None,
                committed,
                done,
            })
        });
    }

    // Rolling crashes across all three sites for the first five seconds —
    // the writers' own sites included — then let the survivors drain.
    let chaos = ChaosSpec::new(SimDuration::from_secs(5)).with_rolling_crashes(
        3,
        SimDuration::from_secs(1),
        SimDuration::from_millis(300),
    );
    let replay = cluster.replay_chaos(&mut ChaosSchedule::generate(&chaos, 7), &groups);
    assert!(
        replay.faults_applied > 0,
        "the schedule must actually crash sites"
    );
    cluster.run_to_completion();
    assert_eq!(
        done.load(Ordering::SeqCst),
        WRITERS,
        "every writer must drain its quota through the crashes"
    );
    cluster
        .verify()
        .expect("chaotic conflict-free run must be serializable");

    let mut state = FinalState::new();
    for w in 0..WRITERS {
        let group = groups[w % GROUPS];
        let home = cluster.directory().group_home(group);
        let core = cluster.core(home);
        let mut core = core.lock();
        let position = core.read_position(group);
        for (row, attr) in writer_item_names(w) {
            let value = core
                .read(group, symbols.key(&row), symbols.attr(&attr), position)
                .unwrap();
            state.insert((row, attr), value);
        }
    }
    (state, committed.load(Ordering::SeqCst))
}

/// The identical workload on the fault-free 2-worker parallel runtime.
fn parallel_fault_free_run() -> (FinalState, usize) {
    let mut cluster = ParallelCluster::build(
        ParallelClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp)
            .with_workers(2)
            .with_seed(7),
    );
    let symbols = cluster.symbols();
    let groups: Vec<GroupId> = (0..GROUPS)
        .map(|g| cluster.register_group(&format!("g{g}")))
        .collect();
    let committed = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicUsize::new(0));
    let replicas = cluster.num_datacenters();
    for w in 0..WRITERS {
        let group = groups[w % GROUPS];
        let items: Vec<ItemRef> = writer_item_names(w)
            .iter()
            .map(|(row, attr)| ItemRef::new(symbols.key(row), symbols.attr(attr)))
            .collect();
        let service = cluster.service_for_group(group);
        let core = cluster.home_core(group);
        let worker = cluster.shard_of_group(group);
        let committed = Arc::clone(&committed);
        let done = Arc::clone(&done);
        let writer = ChaosSerialWriter {
            label: w,
            group,
            service,
            core,
            items,
            quota: QUOTA,
            value_seq: 0,
            txn_seq: 0,
            pending: None,
            committed,
            done,
        };
        cluster.add_driver(worker, w % replicas, move |_node| Box::new(writer));
    }
    let done_flag = Arc::clone(&done);
    cluster.run(Duration::from_secs(30), move || {
        done_flag.load(Ordering::SeqCst) >= WRITERS
    });
    assert_eq!(done.load(Ordering::SeqCst), WRITERS);
    cluster
        .verify()
        .expect("fault-free parallel run must be serializable");

    let mut state = FinalState::new();
    for w in 0..WRITERS {
        let group = groups[w % GROUPS];
        for (row, attr) in writer_item_names(w) {
            let value = cluster.read_committed(group, symbols.key(&row), symbols.attr(&attr));
            state.insert((row, attr), value);
        }
    }
    (state, committed.load(Ordering::SeqCst))
}

/// Chaos must cost latency, not outcomes: the serial-writer workload run
/// through rolling crashes on the simnet converges to the *identical*
/// final store state as the fault-free 2-worker parallel runtime — the
/// causally expected one — with every value committed exactly once.
#[test]
fn chaotic_simnet_matches_fault_free_parallel_on_conflict_free_workload() {
    let (chaos_state, chaos_committed) = chaotic_simnet_run();
    let (par_state, par_committed) = parallel_fault_free_run();

    let total = WRITERS * QUOTA as usize;
    assert_eq!(
        chaos_committed, total,
        "chaos run commits every value exactly once"
    );
    assert_eq!(par_committed, total, "parallel run commits every value");
    assert_eq!(
        chaos_state, par_state,
        "both runtimes must converge to the identical final store state"
    );
    for w in 0..WRITERS {
        for (i, (row, attr)) in writer_item_names(w).into_iter().enumerate() {
            assert_eq!(
                chaos_state
                    .get(&(row.clone(), attr.clone()))
                    .cloned()
                    .flatten(),
                expected_final(w, i),
                "item ({row}, {attr}) must hold the last serial write"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Any seed, any crash/churn cadence: the 3-datacenter, 4-group
    /// rolling-failure scenario must produce a serializable history in
    /// which every client-observed commit appears at exactly one position
    /// of the merged decided log (both asserted inside [`run_load`]), and
    /// the metrics must stay internally consistent.
    #[test]
    fn seeded_chaos_commits_exactly_once_and_stays_serializable(
        seed in any::<u64>(),
        crash_period_ms in 800u64..2000,
        churn_period_ms in 1500u64..4000,
    ) {
        let duration = SimDuration::from_secs(4);
        let chaos = ChaosSpec::new(duration)
            .with_rolling_crashes(
                3,
                SimDuration::from_millis(crash_period_ms),
                SimDuration::from_millis(250),
            )
            .with_flapping(
                SiteId(1),
                SiteId(2),
                SimDuration::from_secs(2),
                SimDuration::from_millis(200),
            )
            .with_home_churn(4, SimDuration::from_millis(churn_period_ms));
        let mut spec = LoadSpec::rolling_failure(duration)
            .with_chaos(chaos)
            .with_offered_tps(60.0)
            .with_seed(seed);
        // Liveness bars are scenario-tuned; arbitrary cadences only have to
        // be safe and exactly-once, which run_load asserts before returning.
        spec.liveness_window = None;
        let result = run_load(&spec);
        let totals = &result.totals;
        prop_assert!(totals.committed > 0, "seed {seed}: nothing committed");
        prop_assert!(totals.attempted >= totals.committed + totals.aborted);
        prop_assert!(totals.faults_injected > 0);
    }
}
